(** SHA-1 (FIPS 180-1), the hash SFS builds everything on: HostIDs,
    session keys, AuthIDs, the traffic MAC and the PRNG. *)

type ctx

val init : unit -> ctx
val update : ctx -> string -> unit

val feed_bytes : ctx -> Bytes.t -> off:int -> len:int -> unit
(** Hashes [len] bytes at [off] straight from the buffer — the
    zero-staging-copy path of the channel fast path.  The bytes are
    only read. @raise Invalid_argument when the range is out of
    bounds. *)

val reset : ctx -> unit
(** Back to the initial state, keeping the context's storage. *)

val copy_into : ctx -> dst:ctx -> unit
(** Overwrites [dst] with the state of the first context, which is left
    untouched — an allocation-free clone, the basis of precomputed HMAC
    key schedules. *)

val final : ctx -> string
[@@sfs.declassify "a SHA-1 digest is one-way; SFS publishes digests of secrets (HostIDs, tags) by design"]
(** 20-byte digest. The context must not be reused after [final]. *)

val digest_into : ctx -> Bytes.t -> off:int -> unit
[@@sfs.declassify "writes only the one-way 20-byte digest into the destination buffer"]
(** Writes the 20-byte digest at [off] with no intermediate string.
    Same reuse rule as {!final}. @raise Invalid_argument when the
    range is out of bounds. *)

val digest : string -> string
[@@sfs.declassify "a SHA-1 digest is one-way; SFS publishes digests of secrets (HostIDs, tags) by design"]
val digest_sub : string -> off:int -> len:int -> string
[@@sfs.declassify "a SHA-1 digest is one-way; SFS publishes digests of secrets (HostIDs, tags) by design"]
(** [digest_sub s ~off ~len] is [digest (String.sub s off len)]
    without the copy: a view is hashed where it lies.
    @raise Invalid_argument when the range is out of bounds. *)

val digest_list : string list -> string
[@@sfs.declassify "a SHA-1 digest is one-way; SFS publishes digests of secrets (HostIDs, tags) by design"]
(** [digest_list parts] hashes the concatenation of [parts]. *)

val digest_size : int
val hex : string -> string
[@@sfs.declassify "hex rendering of the one-way digest, for fingerprint display"]
(** [hex s] is the digest of [s] in lowercase hex. *)
