(** SRP (Secure Remote Password, Wu '98; the SRP-6a refinement).

    Lets sfskey negotiate a strong session key with authserv from a weak
    password, exposing nothing useful to off-line guessing (paper
    section 2.4).  Passwords are pre-hardened with eksblowfish. *)

open Sfs_bignum

type group = { n : Nat.t; g : Nat.t }

val default_group : group
(** A 512-bit safe-prime group with generator 2, produced by this
    library (see DESIGN.md). *)

type verifier = { user : string; salt : string; v : Nat.t [@sfs.secret]; cost : int }
(** What the server stores.  A stolen verifier admits only an
    eksblowfish-cost-paced guessing attack, never direct login. *)

val make_verifier : ?cost:int -> group -> Prng.t -> user:string -> password:string -> verifier

(* sfslint: allow SL014 — sfstaint reads secret sources from interfaces only, and this marks the password-derived exponent *)
val private_key : cost:int -> salt:string -> user:string -> password:string -> Nat.t
[@@sfs.secret]
(** x = H(salt ∥ eksblowfish(cost, user ∥ password)). *)

type client
type server
type session = { key : string [@sfs.secret]; proof : string }

val client_start : group -> Prng.t -> user:string -> password:string -> client
val client_pub : client -> Nat.t
[@@sfs.declassify "the blinded group element A = g^a is what SRP puts on the wire"]

val server_start : group -> Prng.t -> verifier -> server
val server_pub : server -> Nat.t
[@@sfs.declassify "the blinded group element B = kv + g^b is what SRP puts on the wire"]

val client_finish : client -> salt:string -> cost:int -> b_pub:Nat.t -> session option
(** [None] when the server's value is degenerate (B ≡ 0 or u = 0). *)

val server_finish : server -> a_pub:Nat.t -> session option
(** [None] when the client's value is degenerate (A ≡ 0 or u = 0). *)

val check_client_proof : session -> proof:string -> bool
(** Server verifies the client's M1; success proves password knowledge. *)

val server_proof : group -> a_pub:Nat.t -> session -> string
(** Server's counter-proof M2, proving it knew the verifier. *)

val check_server_proof : group -> a_pub:Nat.t -> session -> proof:string -> bool
