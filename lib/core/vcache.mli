(** The read-only client's verification cache: a bounded LRU over
    objects that already passed hash verification.

    Verification is the read-only dialect's per-client cost (serving is
    free for the mirror, the client pays SHA-1 per fetched byte), so a
    client should verify each object of a hash chain once and then
    trust its own memory.  Entries are keyed by content hash, which
    pins the bytes exactly: a hit is valid across replicas and across
    root serials — a new root that still references the same hash
    references the same bytes by construction.

    Counters (when a registry is supplied): [ro.verify.hit],
    [ro.verify.hit_bytes], [ro.verify.miss], [ro.vcache.evict]. *)

module Ro = Sfs_proto.Readonly_proto

type t

val create : ?obs:Sfs_obs.Obs.registry -> cap:int -> unit -> t
(** LRU over at most [cap] verified objects ([cap >= 1]). *)

val find : t -> string -> Ro.obj option
(** [find t hash] returns the verified object and refreshes its
    recency; counts a hit or a miss. *)

val add : t -> hash:string -> bytes:int -> Ro.obj -> unit
(** Insert an object that just passed verification ([bytes] = size of
    its marshaled form, for the byte accounting); evicts the least
    recently used entry when full. *)

val count : t -> int
val bytes : t -> int
(** Live entries and the marshaled bytes they pin. *)
