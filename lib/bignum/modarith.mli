(** Modular arithmetic: inverses, CRT. *)

val inverse : x:Nat.t -> modulus:Nat.t -> Nat.t option
(** Modular inverse, [None] when [gcd x modulus <> 1]. *)

val crt : m1_inv:Nat.t -> r1:Nat.t -> m1:Nat.t -> r2:Nat.t -> m2:Nat.t -> Nat.t
(** The unique [x < m1·m2] with [x ≡ r1 (mod m1)] and [x ≡ r2 (mod m2)],
    for [r1 < m1] and coprime moduli.  [m1_inv] is the CRT coefficient
    [m1⁻¹ mod m2] (see {!inverse}); callers combining many residue pairs
    over one pair of moduli compute it once. *)

val mulmod : Nat.t -> Nat.t -> Nat.t -> Nat.t
val addmod : Nat.t -> Nat.t -> Nat.t -> Nat.t
val submod : Nat.t -> Nat.t -> Nat.t -> Nat.t
val negmod : Nat.t -> Nat.t -> Nat.t
