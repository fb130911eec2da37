(** Primality testing and prime generation.

    Randomness comes from the caller as [rand_bits : int -> Nat.t]
    (returning a uniform value of at most that many bits), keeping this
    library independent of the crypto PRNG built above it. *)

val is_probably_prime : ?rounds:int -> rand_bits:(int -> Nat.t) -> Nat.t -> bool
(** Trial division then [rounds] Miller-Rabin rounds (default 24). *)

val generate : ?congruence:int * int -> rand_bits:(int -> Nat.t) -> int -> Nat.t
[@@sfs.secret]
(** [generate ~rand_bits bits] draws a random prime of exactly [bits]
    bits.  [~congruence:(r, m)] additionally forces [p ≡ r (mod m)], as
    Rabin-Williams needs [p ≡ 3 (mod 8)] and [q ≡ 7 (mod 8)]; [m] is a
    native int of at most [2^36]. *)
