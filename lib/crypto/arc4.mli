(** ARC4 stream cipher with SFS's 20-byte-key schedule spin.

    A [t] is a running keystream: SFS keeps one per direction for the
    lifetime of a session, interleaving MAC re-keying bytes and
    encryption bytes (paper section 3.1.3). *)

type t

val create : string -> t
(** [create key] runs one key-schedule pass per 16-byte chunk of [key].
    A key of at most 16 bytes therefore behaves exactly like standard
    ARC4. @raise Invalid_argument on an empty key. *)

(* sfslint: allow SL014 — the one-byte reference step the batched keystream is tested against *)
val next_byte : t -> int
(** Reference single-byte step; the block operations below are
    property-tested against it. *)

val skip : t -> int -> unit
(** [skip t n] advances the stream [n] bytes, producing nothing — how a
    no-encrypt channel half stays in lock-step without allocating a
    throwaway keystream. *)

(* sfslint: allow SL014 — the raw keystream that the reference-ARC4 property compares *)
val keystream : t -> int -> string
[@@sfs.secret]
(** [keystream t n] advances the stream, returning [n] bytes. *)

val encrypt : t -> string -> string
[@@sfs.declassify "stream-cipher output is ciphertext; it reveals neither key nor keystream"]
(** Xors the input against the stream, advancing it. *)

val encrypt_into : t -> Bytes.t -> off:int -> len:int -> unit
[@@sfs.declassify "in-place stream-cipher pass leaves ciphertext in the buffer, not key material"]
(** Xors [len] bytes at [off] in place against the stream — the
    single-pass whole-frame encryption of the channel fast path.
    @raise Invalid_argument when the range is out of bounds. *)

val xor_into : t -> src:string -> src_off:int -> dst:Bytes.t -> dst_off:int -> len:int -> unit
[@@sfs.declassify "xor against the keystream yields ciphertext or recovered plaintext, never the stream itself"]
(** Xors [len] bytes of [src] at [src_off] against the stream into
    [dst] at [dst_off]: decryption straight off the wire into a caller
    buffer. @raise Invalid_argument when either range is out of
    bounds. *)

val decrypt : t -> string -> string
[@@sfs.declassify "recovered plaintext is application data; where it is a key the consuming interface re-asserts secrecy"]
(** Identical to {!encrypt}; named for call-site clarity. *)
