(** Rabin-Williams public-key encryption and signatures (paper section
    3.1.3): security assuming only that factoring is hard, with
    encryption and signature verification costing a single modular
    squaring. *)

open Sfs_bignum

type pub = { n : Nat.t; bits : int }

type root
(** One prime's square-root context: its Montgomery context and the
    exponent (p + 1)/4. *)

type priv = {
  pub : pub; [@sfs.public]
  p : Nat.t; [@sfs.secret]
  q : Nat.t; [@sfs.secret]
  p_inv : Nat.t; [@sfs.secret]
  p_root : root; [@sfs.secret]
  q_root : root; [@sfs.secret]
}
(** [p_inv] is the CRT coefficient p⁻¹ mod q, and [p_root], [q_root]
    the primes' root contexts; all are computed once per key.  The
    contexts are scratch that {!sign} and {!decrypt} compute in, so a
    key must not be used re-entrantly: no second call under the same
    key may start before the first returns.  One key shared by many
    clients of a single-threaded simulation, as the fleet shares one
    K_C, is safe. *)

val generate : ?bits:int -> Prng.t -> priv
[@@sfs.secret]
(** [generate ~bits rng] draws [p ≡ 3 (mod 8)], [q ≡ 7 (mod 8)] of
    [bits/2] bits each.  Default 1024-bit modulus; tests use smaller. *)

val pub_to_string : pub -> string
(** Canonical encoding, the [PublicKey] bytes hashed into HostIDs. *)

val pub_of_string : string -> pub option
val pub_equal : pub -> pub -> bool

val pub_fingerprint : pub -> string
(** SHA-1 of the canonical encoding. *)

val priv_to_string : priv -> string
val priv_of_string : string -> priv option
[@@sfs.secret]
(** Private-key serialization, for agent storage and the encrypted-key
    deposit with authserv.  Only p and q are stored; [priv_of_string]
    recomputes [p_inv] and the root contexts, and returns [None] unless
    p and q are coprime and both 3 (mod 4). *)

(** {2 Signatures} *)

type signature = { root : Nat.t; negate : bool; double : bool }
(** A modular square root plus the two Williams tweak bits. *)

val sign : priv -> string -> signature
[@@sfs.declassify "a Rabin-Williams signature is published on the wire by design; it reveals a square root, not the factors"]
val verify : pub -> string -> signature -> bool
val signature_to_string : signature -> string
val signature_of_string : string -> signature option

(** {2 Encryption} *)

(* sfslint: allow SL014 — the OAEP message bound, at which the encryption test encrypts *)
val max_plaintext : pub -> int
(** OAEP capacity in bytes for direct encryption. *)

val encrypt : pub -> Prng.t -> string -> Nat.t
[@@sfs.declassify "OAEP ciphertext under the recipient's public key; safe to transmit"]
(** OAEP-pad then square. @raise Invalid_argument when the message
    exceeds {!max_plaintext}. *)

val decrypt : priv -> Nat.t -> string option
[@@sfs.declassify "recovered plaintext is the caller's message, not key material; callers re-assert secrecy where the payload is a key"]
(** Tries the four square roots in a fixed order, (rp, rq), (rp, -rq),
    (-rp, rq), (-rp, -rq), and returns the first the OAEP redundancy
    accepts: at most two CRT combinations, as the last two roots are
    n minus the first two.  [None] on tampered or garbage ciphertext. *)

val encrypt_blob : pub -> Prng.t -> string -> string
[@@sfs.declassify "hybrid ciphertext+MAC under the recipient's public key; safe to transmit"]
(** Hybrid encryption for arbitrary-length payloads: Rabin-encrypts a
    fresh 20-byte key, ARC4-encrypts the body, MACs it. *)

val decrypt_blob : priv -> string -> string option
[@@sfs.declassify "recovered plaintext is the caller's message, not key material; callers re-assert secrecy where the payload is a key"]
