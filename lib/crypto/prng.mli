(** DSS-style SHA-1 pseudo-random generator (paper section 3.1.3): not
    runnable backwards if its state leaks, seeded from a 512-bit hash of
    entropy sources. *)

type t

val create : string list -> t
[@@sfs.secret]
(** [create sources] condenses the entropy [sources] into a 512-bit
    seed.  Deterministic: tests pass fixed sources. *)

(* sfslint: allow SL014 — mixes entropy into the generator; the Prng known-answer stream pins it *)
val add_entropy : t -> string -> unit
(** Folds more entropy into the state (keystrokes, timers, ...). *)

val random_bytes : t -> int -> string
[@@sfs.declassify "forward-secure PRNG output doubles as public nonces; it does not reveal the seed state"]
val random_nat : t -> bits:int -> Sfs_bignum.Nat.t
[@@sfs.declassify "forward-secure PRNG output doubles as public nonces; it does not reveal the seed state"]
(* sfslint: allow SL014 — a bounded draw the Prng known-answer stream pins *)
val random_below : t -> bound:Sfs_bignum.Nat.t -> Sfs_bignum.Nat.t
[@@sfs.declassify "forward-secure PRNG output doubles as public nonces; it does not reveal the seed state"]
val random_int : t -> int -> int
[@@sfs.declassify "forward-secure PRNG output doubles as public nonces; it does not reveal the seed state"]
(** [random_int t bound] is uniform in [0, bound). *)

val of_seed : string -> t
[@@sfs.secret]
(** [of_seed seed] is the explicit deterministic path: the same seed
    yields the same byte stream on every run.  Simulations and tests
    must use this (or {!create} with fixed sources), never {!default}. *)

val default : unit -> t
[@@sfs.secret]
(** Process-global generator seeded from ambient OS randomness and the
    process clock; for demo binaries, not for tests.  The sole waived
    wall-clock access in [lib/] (see SL003 in DESIGN.md). *)
