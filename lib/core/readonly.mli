(** The public read-only dialect (paper sections 2.4, 3.2): snapshots
    are content-hash trees whose root is signed once; any replica —
    trusted or not — can serve the bytes, and clients verify every
    object against the chain ending at the signed root. *)

module Ro = Sfs_proto.Readonly_proto
module Rabin = Sfs_crypto.Rabin
module Memfs = Sfs_nfs.Memfs
module Simclock = Sfs_net.Simclock

exception Verification_failed of string

(** {2 Publishing} *)

type snapshot

val snapshot :
  ?serial:int ->
  ?prev:snapshot ->
  key:Rabin.priv ->
  now_s:int ->
  Memfs.t ->
  snapshot
(** Hash a Memfs tree bottom-up and sign the root; the one private-key
    operation per snapshot.  The signed root is valid for a day.
    [serial] must increase across snapshots to stop rollback.  With
    [?prev], the build is incremental: a leaf whose Memfs content
    generation is unchanged since [prev] carries its hash and bytes
    over without re-reading or re-hashing, so the publish cost tracks
    the rate of change, not the tree size. *)

val snapshot_size : snapshot -> int
(** Total marshaled object bytes in the store. *)

val fsinfo : snapshot -> Ro.fsinfo
val signature : snapshot -> string

val object_count : snapshot -> int
val mem : snapshot -> string -> bool
(** Does the store hold this hash? *)

val fold_store : snapshot -> (string -> Sfs_util.Slice.t -> 'a -> 'a) -> 'a -> 'a
(** Fold over (hash, marshaled object); each object is a view into the
    reply frame the store keeps for it.  Order unspecified. *)

val reuse_stats : snapshot -> int * int
(** [(reused, hashed)]: leaf objects carried over from [prev] versus
    objects marshaled and hashed this publish. *)

val fresh_bytes : snapshot -> int
(** Bytes actually hashed this publish — the publisher's SHA-1 bill. *)

(** {2 Serving} *)

type store = {
  frames : (string, string) Hashtbl.t;  (** hash -> [Obj_is] reply frame, sent as is *)
  mutable root : (Ro.fsinfo * string) option;  (** the signed root and its reply frame *)
  clock : Simclock.t;  (** the serving host's *)
  obs : Sfs_obs.Obs.registry option;
}
(** What a read-only server answers from: a snapshot's ({!store}), or
    what a publisher pushed to a mirror ({!Replica.mirror}). *)

val store : ?obs:Sfs_obs.Obs.registry -> clock:Simclock.t -> snapshot -> store
(** The snapshot's frames (shared, not copied) and its signed root. *)

val serve_cost : store -> int -> unit
(** Charge serving [n] bytes: a user-level crossing and a copy. *)

val serve : store -> string -> string
(** The whole server side, from request bytes: Get_fsinfo and Get_obj
    are answered with the stored frames, charging {!serve_cost} and
    counting [ro.serve.objs] and [ro.serve.bytes]; anything else, the
    fan-out procedures included, is a [Ro_error]. *)

(** {2 Verifying client} *)

type client

(* sfslint: allow SL014 — §3.2: the verifying client over a bare exchange, which the refusal, tamper and allocation tests drive with a fixed server; every mount goes through dial *)
val connect :
  ?obs:Sfs_obs.Obs.registry ->
  ?cache_objs:int ->
  exchange:(string -> string) ->
  pubkey:Rabin.pub ->
  clock:Simclock.t ->
  unit ->
  client
(** Fetch and verify the signed root (signature, validity window).
    [cache_objs] bounds the verification cache (default 4096 objects).
    Every exchange is first charged a user-level crossing on [clock].
    @raise Verification_failed otherwise. *)

val dial :
  ?obs:Sfs_obs.Obs.registry -> ?cache_objs:int -> ?client:client -> Sfs_net.Simnet.t ->
  from_host:string -> clock:Simclock.t -> Pathname.t ->
  (Sfs_net.Simnet.conn * client, Sfs_proto.Keyneg.refusal) result
(** The one read-only dial, to sfssd or a mirror: the [Fs_readonly]
    connect step ({!Sfs_proto.Keyneg.dial}), then {!connect} over it.
    A failover passes [client]: the connection replaces its exchange,
    and its cache, root and first key carry over.  The caller owns the
    connection, closed on every refusal and exception from {!connect}. *)

(* sfslint: allow SL014 — §3.2: the verifying client's one check of an object against its hash, which the refusal, tamper and allocation tests drive with a fixed exchange; every reader goes through ops *)
val fetch : client -> string -> Ro.obj
(** Fetch an object by hash, verify it is the preimage, cache it.
    The object is hashed and decoded where it lies in the reply, so a
    file's bytes are copied once, and a directory is not copied at
    all: it stays a view into the reply string the exchange returned,
    checked once for structure ({!Ro.obj_of_slice}).  Cache hits skip
    the network, the SHA-1 and the check. *)

val ops : client -> Sfs_nfs.Fs_intf.ops
(** A read-only file system view over the verified snapshot; handles
    are object hashes, and a whole-file read is the verified string.
    A lookup scans the verified directory's bytes ({!Ro.dir_find});
    only a readdir decodes its entries. *)

val refresh : client -> unit
(** Re-fetch the signed root, refusing serial rollback.  A reply
    byte-identical to the last verified one skips the Rabin check (the
    window and serial checks still run); the verification cache
    survives root changes. *)

val current_fsinfo : client -> Ro.fsinfo
