(** Disk and buffer-cache timing model: an FFS-era SCSI disk behind a
    fixed-capacity LRU block cache whose recency is insert/write order
    (a read hit does not promote; dirty victims are written back).  See
    the implementation header for the modeled behaviours and DESIGN.md
    for calibration. *)

type params = {
  position_us : float; (** average seek + rotational delay *)
  bytes_per_us : float; (** media transfer rate *)
  memcpy_bytes_per_us : float; (** cache-hit copy rate *)
  metadata_sync_us : float; (** one synchronous metadata update *)
  cache_blocks : int; (** LRU capacity in 8 KB blocks *)
}

val default_params : params

type t

val create : ?params:params -> Sfs_net.Simclock.t -> t

val read : t -> fileid:int -> off:int -> bytes:int -> unit
(** Charge a read: memcpy on hits, positioning + transfer on misses,
    positioning amortized within sequential runs. *)

val write : t -> fileid:int -> off:int -> bytes:int -> stable:bool -> unit
(** Stable writes reach media before returning; unstable writes dirty
    the cache. *)

val metadata_update : t -> unit
(** One synchronous metadata update (create/remove/rename/...). *)

val flush : t -> ?fileid:int -> unit -> unit
(** Write back dirty blocks (COMMIT or sync), grouped sequentially. *)

val invalidate : t -> unit
(** Flush then drop the cache (unmount/remount between benchmark
    phases). *)

val stats : t -> int * int
(** [(block reads, cache hits)]. *)
