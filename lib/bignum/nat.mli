(** Arbitrary-precision natural numbers.

    SFS's cryptography (Rabin-Williams, SRP) runs over naturals of up to a
    few thousand bits.  The representation is little-endian arrays of
    26-bit limbs; every [t] is immutable.  The one mutable value is a
    Montgomery context ({!mont}), which owns its buffers. *)

type t

val zero : t
val one : t
val two : t

val is_zero : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int

val of_int : int -> t
(** @raise Invalid_argument on negative input. *)

val to_int_opt : t -> int option
(** [to_int_opt a] is [Some v] when [a] fits a native int below [2^62]. *)

val num_bits : t -> int
(** Position of the highest set bit plus one; [num_bits zero = 0]. *)

val testbit : t -> int -> bool

val add : t -> t -> t

val add_int : t -> int -> t
(** [add_int a v] is [a + v] for a native [v >= 0] with no intermediate
    value: one allocation unless the carry leaves the top limb, and [a]
    itself when [v = 0]. @raise Invalid_argument on negative [v]. *)

val set_bit : t -> int -> t
(** [set_bit a i] is [a] with bit [i] set: [a] itself when it already
    is, else one copy. @raise Invalid_argument on negative [i]. *)

val sub : t -> t -> t
(** @raise Invalid_argument when the result would be negative. *)

val mul : t -> t -> t
(** Karatsuba above 32 limbs, schoolbook below. *)

val divmod : t -> t -> t * t
(** [divmod a b] is [(a / b, a mod b)]: Knuth's algorithm D, in place on
    one normalized copy of each operand.
    @raise Division_by_zero when [b] is zero. *)

val div : t -> t -> t
val rem : t -> t -> t

val rem_int : t -> int -> int
(** [rem_int a d] is [a mod d] for a native [d] in [(0, 2^36]], with no
    allocation: trial division by small primes runs on it.
    @raise Division_by_zero when [d] is zero.
    @raise Invalid_argument when [d] is negative or above [2^36]. *)

val shift_left : t -> int -> t
val shift_right : t -> int -> t

val modexp : base:t -> exp:t -> modulus:t -> t
(** Sliding-window exponentiation (window 4–5 at cryptographic sizes)
    on a fresh {!mont} context: CIOS Montgomery products on fixed k-limb
    buffers, each interleaving multiply and reduce limb by limb with the
    one-limb -m⁻¹ mod 2^26, so a whole exponentiation allocates only
    its context and result ({!mont_pow}, then {!mont_out}).  Falls back
    to {!modexp_reference} for even moduli. *)

type mont
(** A Montgomery context for one odd modulus m > 1: the one-limb
    -m⁻¹ mod 2^26, R mod m and R² mod m (R = 2^(26k) for a k-limb m),
    computed by doubling and squaring with no division, plus scratch
    and an accumulator.  Every operation on it runs in place, so a
    context is scratch: one computation at a time. *)

val mont : t -> mont
(** @raise Invalid_argument when the modulus is even or 1. *)

val mont_for : mont option -> t -> mont
(** [mont_for prev m] is a context for [m]: [prev] re-targeted in place,
    with no allocation, when it has [m]'s limb count (its old modulus
    is then forgotten), else a fresh {!mont}.  A prime search runs every
    candidate of one width in one context.
    @raise Invalid_argument when [m] is even or 1. *)

val mont_pow : mont -> base:t -> exp:t -> unit
(** Sets the accumulator to [base^exp mod m] (kept in Montgomery
    form); the odd-power table is allocated by the first call only. *)

val mont_square : mont -> unit
(** Squares the accumulator in place. *)

val mont_out : mont -> t
(** The accumulator out of Montgomery form, as a fresh value below m:
    one product by 1 and one copy.  The context is left for reuse. *)

val mont_unit : mont -> int
(** [1] when the accumulator holds 1, [-1] when it holds [m - 1],
    [0] otherwise: the comparisons a Miller-Rabin round makes. *)

(* sfslint: allow SL014 — the obviously correct oracle the Montgomery path is tested against *)
val modexp_reference : base:t -> exp:t -> modulus:t -> t
(** Binary exponentiation with a division per step: the slow, obviously
    correct oracle the Montgomery path is equivalence-tested against. *)

val gcd : t -> t -> t
(** Binary (Stein) gcd on private copies of the operands; no division. *)

val jacobi : t -> t -> int
(** Jacobi symbol [(a/n)] for odd [n], any [a]; result in [{-1, 0, 1}].
    Binary, on private copies of the operands, like {!gcd}.
    @raise Invalid_argument on even [n]. *)

val inverse_odd : t -> t -> t option
(** [inverse_odd x m] is [x⁻¹ mod m] for an odd [m > 1] and
    [0 < x < m], [None] when [gcd x m <> 1]: an extended binary gcd on
    limb buffers, with no division. *)

val of_bytes_be : string -> t
(** Big-endian byte-string interpretation, as protocol fields use. *)

val to_bytes_be : t -> string
(** Minimal-length big-endian bytes; [to_bytes_be zero = ""]. *)

val to_bytes_be_padded : width:int -> t -> string
(** Left-zero-padded to exactly [width] bytes.
    @raise Invalid_argument when the value needs more than [width] bytes. *)

val of_hex : string -> t
(* sfslint: allow SL014 — hex text of the Prng and prime known-answer digests *)
val to_hex : t -> string
(* sfslint: allow SL014 — decimal text of the bignum known-answer vectors *)
val of_string : string -> t
(** Decimal digits. @raise Invalid_argument on other characters. *)

(* sfslint: allow SL014 — decimal text of the bignum known-answer vectors and counterexamples *)
val to_string : t -> string
(** Decimal rendering. *)
