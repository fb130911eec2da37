(** NFS file handle protection (paper section 3.3): SFS wire handles
    are inner NFS handles with keyed redundancy, Blowfish-CBC-encrypted
    under a 20-byte key.  Handles can be public — an attacker can
    neither decrypt nor forge one. *)

type t

val create : string -> t
(** @raise Invalid_argument unless the key is exactly 20 bytes. *)

val of_prng : Sfs_crypto.Prng.t -> t

val encrypt : t -> string -> string
[@@sfs.declassify "blinded file handle: Blowfish-CBC over keyed redundancy reveals nothing about the handle key"]
(** Inner handles up to 40 bytes.  Runs CBC in place on the instance's
    scratch block; allocates only the returned handle. *)

val decrypt : t -> string -> string option
(** [None] for anything not produced by this instance's {!encrypt} —
    guessed, tampered, truncated, extended or cross-key handles. *)
