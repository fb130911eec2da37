(** sfskey — the user key utility (paper sections 2.4, 2.5.2): with one
    password, retrieve a server's self-certifying pathname and the
    user's encrypted private key over SRP, install both in the agent.
    No administrators, no certification authorities. *)

module Simnet = Sfs_net.Simnet
module Rabin = Sfs_crypto.Rabin
module Prng = Sfs_crypto.Prng

type error =
  | Unreachable of string
  | Auth_failed of string
  | Protocol_error of string

val error_to_string : error -> string

(** {2 Private-key decryption under the password}

    The key-encryption key is derived independently of the SRP
    verifier, so a stolen verifier does not reveal it. *)

(** {2 Registration and retrieval} *)

val register_local :
  ?cost:int -> Authserv.t -> Prng.t -> user:string -> password:string -> key:Rabin.priv -> unit
(** Run on (or by the administrator of) the file server: registers the
    public key, the SRP verifier and the encrypted private key.  [cost]
    is the eksblowfish parameter (default 6 ≈ "almost a full second"). *)

type fetched = {
  server_path : Pathname.t;
  private_key : Rabin.priv option; [@sfs.secret]
  session_key : string; [@sfs.secret]
      (** for follow-up registration on this session *)
  srp_conn : Simnet.conn;
  srp_exchange : string -> string;
      (** the exchange {!Sfs_proto.Keyneg.dial} returned over [srp_conn]:
          the connect step and every SRP message ride its one mux *)
}

(* sfslint: allow SL014 — §2.4: the SRP retrieval on its own, before any agent is involved *)
val fetch :
  Simnet.t ->
  Prng.t ->
  from_host:string ->
  location:string ->
  user:string ->
  password:string ->
  (fetched, error) result
(** The SRP exchange: mutual authentication from the password alone;
    the payload arrives sealed under the session key.  A refused dial,
    a crash window or a lost message is [Unreachable], and a revoked
    server [Auth_failed "server key revoked"].  Every error closes the
    connection; on success the caller owns [srp_conn]. *)

(* sfslint: allow SL014 — §2.5.2: changing keys over an authenticated sfskey session *)
val register_remote : fetched -> Authserv.registration -> (unit, error) result
(** Change keys / SRP data over an authenticated session ("It allows
    them to connect over the network with sfskey and change their
    public keys"). *)

val add :
  Simnet.t ->
  Prng.t ->
  Agent.t ->
  from_host:string ->
  location:string ->
  user:string ->
  password:string ->
  (Pathname.t, error) result
(** The complete "sfskey add user@location": fetch, close the SRP
    connection, install the key in the agent, link the server under
    /sfs by its location. *)
