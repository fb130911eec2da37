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
(** Total marshaled bytes in the store. *)

val fsinfo : snapshot -> Ro.fsinfo
val signature : snapshot -> string

val object_count : snapshot -> int
val mem : snapshot -> string -> bool
(** Does the store hold this hash? *)

val fold_store : snapshot -> (string -> string -> 'a -> 'a) -> 'a -> 'a
(** Fold over (hash, marshaled bytes); order unspecified. *)

val reuse_stats : snapshot -> int * int
(** [(reused, hashed)]: leaf objects carried over from [prev] versus
    objects marshaled and hashed this publish. *)

val fresh_bytes : snapshot -> int
(** Bytes actually hashed this publish — the publisher's SHA-1 bill. *)

val handle_request : snapshot -> string -> string
(** The entire server side: bytes in, bytes out, no cryptography.  An
    object reply is built at its exact size from the stored bytes
    ({!Ro.obj_frame}).  Fan-out procedures (Put_objs/Put_root) are
    refused — they are for mirrors (see {!Replica.mirror}). *)

(** {2 Verifying client} *)

type client

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
    @raise Verification_failed otherwise. *)

val fetch : client -> string -> Ro.obj
(** Fetch an object by hash, verify it is the preimage, cache it.
    The object is hashed and decoded where it lies in the reply, so a
    file's bytes are copied once.  Cache hits skip both the network
    and the SHA-1. *)

val ops : client -> Sfs_nfs.Fs_intf.ops
(** A read-only file system view over the verified snapshot; handles
    are object hashes. *)

val refresh : client -> unit
(** Re-fetch the signed root (e.g. after expiry); refuses serial
    rollback.  When the reply is byte-identical to the last verified
    one, the Rabin verification is skipped (the window and serial
    checks still run); the verification cache survives root changes —
    content addressing pins each hash to its bytes forever. *)

val current_fsinfo : client -> Ro.fsinfo
