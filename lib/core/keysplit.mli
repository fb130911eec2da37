(** Split private keys (paper section 2.5.1): n-of-n XOR secret sharing
    of a serialized Rabin private key, so an agent need not hold the
    whole key — "an attacker would need to compromise both the agent
    and authserver to steal a split secret key". *)

module Rabin = Sfs_crypto.Rabin
module Prng = Sfs_crypto.Prng

type share = { idx : int; count : int; bytes : string }
(** Any proper subset of shares is information-theoretically
    independent of the key. *)

(* sfslint: allow SL014 — §2.5.1: split private keys *)
val split : Prng.t -> Rabin.priv -> n:int -> share list
(** @raise Invalid_argument for [n < 2]. *)

val combine : share list -> Rabin.priv option
[@@sfs.secret]
(** Needs all [n] distinct shares of one splitting. *)

(* sfslint: allow SL014 — §2.5.1: proactive re-randomization of split keys *)
val refresh : Prng.t -> share list -> share list option
(** Proactive re-randomization: the key is unchanged but old and new
    share sets are incompatible. *)

(* sfslint: allow SL014 — §2.5.1: a share as the key-holder service stores it *)
val share_to_string : share -> string
[@@sfs.declassify "one serialized share of an n-of-n XOR split is uniformly random on its own (section 2.5.1)"]
(* sfslint: allow SL014 — §2.5.1: a share as the key-holder service stores it *)
val share_of_string : string -> share option
