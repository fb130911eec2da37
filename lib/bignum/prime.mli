(** Primality testing and prime generation.

    Randomness comes from the caller as [rand_bits : int -> Nat.t]
    (returning a uniform value of at most that many bits), keeping this
    library independent of the crypto PRNG built above it. *)

(* sfslint: allow SL014 — the primality oracle the prime known answers and the Srp.default_group check run *)
val is_probably_prime : rand_bits:(int -> Nat.t) -> Nat.t -> bool
(** Trial division then 24 Miller-Rabin rounds. *)

val generate : ?congruence:int * int -> rand_bits:(int -> Nat.t) -> int -> Nat.t
[@@sfs.secret]
(** [generate ~rand_bits bits] draws a random prime of exactly [bits]
    bits.  [~congruence:(r, m)] additionally forces [p ≡ r (mod m)], as
    Rabin-Williams needs [p ≡ 3 (mod 8)] and [q ≡ 7 (mod 8)]; [m] is a
    native int of at most [2^36]. *)
