(** authserv — the SFS authentication server (paper sections 2.5,
    2.5.2): maps public keys to Unix credentials through a list of
    databases (one writable, others read-only imports), validates
    Figure 4 authentication requests, and runs the SRP service that
    sfskey talks to.

    Each writable database has a public half (keys and credentials,
    exportable to the world) and a private half (SRP verifiers and
    eksblowfish-encrypted private keys) that never leaves the server. *)

module Simos = Sfs_os.Simos
module Rabin = Sfs_crypto.Rabin
module Srp = Sfs_crypto.Srp
module Prng = Sfs_crypto.Prng
module Xdr = Sfs_xdr.Xdr

type t

val create : ?obs:Sfs_obs.Obs.registry -> Prng.t -> t
(** When [obs] is given, {!validate} records a span plus
    [auth.validate.ok] / [auth.validate.fail] counters. *)

(** {2 User management} *)

val add_user : t -> user:string -> cred:Simos.cred -> unit
(** @raise Invalid_argument on duplicates. *)

val register_pubkey : t -> user:string -> Rabin.pub -> (unit, string) result
val register_srp :
  t -> user:string -> Srp.verifier -> encrypted_privkey:string option -> (unit, string) result

(* sfslint: allow SL014 — §2.5.2: the private half that an exported database must not carry *)
val srp_verifier : t -> user:string -> Srp.verifier option

(* sfslint: allow SL014 — §2.5.1: the key-holder service for split keys *)
val register_key_share : t -> user:string -> string -> (unit, string) result
(** Key-holder service for split-key agents (section 2.5.1): one share
    of the user's private key, useless on its own. *)

(* sfslint: allow SL014 — §2.5.1: the key-holder service for split keys *)
val key_share : t -> user:string -> string option

(* sfslint: allow SL014 — §2.5: the key-to-credentials map that validate searches *)
val cred_of_pubkey : t -> Rabin.pub -> (string * Simos.cred) option
(** A scan of the databases in search order, the local one first and
    then the imports in the order they were made; the first record
    bound to the key wins. *)

val validate : t -> authmsg:string -> authid:string -> seqno:int -> (string * Simos.cred, string) result
(** Figure 4, steps 4-5: check the signature and map the key. *)

(** {2 Pluggable validation backend}

    File servers talk to authserv through this record rather than a
    concrete [t], so a farm of servers can route each request to one
    shard of a sharded authserv ({!Authshard}) instead of a single
    instance. *)

type backend = {
  b_validate : authmsg:string -> authid:string -> seqno:int -> (string * Simos.cred, string) result;
  b_log_failure : user:string -> reason:string -> unit;
}

val backend : t -> backend
(** The identity backend: validate against this instance. *)

(** {2 Audit} *)

val log_failure : t -> user:string -> string -> unit
val failed_attempts : t -> (string * string) list
(** Newest first; the paper's defence that on-line guessing "can be
    detected and stopped". *)

(** {2 Public database export/import (section 2.5.2)} *)

(* sfslint: allow SL014 — §2.5.2: exporting the public database *)
val export_public_db : t -> string
(** Serialized public half — no password-derived material; safe to
    publish over SFS to untrusted servers. *)

(* sfslint: allow SL014 — §2.5.2: importing another server's public database *)
val import_public_db : t -> name:string -> string -> (unit, string) result
(** Install (or refresh) a read-only database; the copy keeps working
    when the origin is unreachable. *)

(** {2 The SRP service (sfskey's peer, section 2.4)} *)

type srp_payload = { self_cert_path : string; encrypted_key : string option }

val dec_srp_payload : Xdr.dec -> srp_payload

type srp_request =
  | Srp_hello of { user : string; a_pub : Sfs_bignum.Nat.t }
  | Srp_client_proof of string
  | Srp_register of string (** sealed under {!srp_direction_key} [To_server] *)

type srp_response =
  | Srp_params of { salt : string; cost : int; b_pub : Sfs_bignum.Nat.t }
  | Srp_server_proof of { proof : string; sealed : string }
  | Srp_registered
  | Srp_failed of string

val enc_srp_request : Xdr.enc -> srp_request -> unit
val dec_srp_response : Xdr.dec -> srp_response

type registration = {
  reg_pubkey : Rabin.pub option;
  reg_srp : (string * int * Sfs_bignum.Nat.t) option; (** salt, cost, verifier *)
  reg_encrypted_key : string option;
}

val enc_registration : Xdr.enc -> registration -> unit

val seal_with : string -> string -> string
[@@sfs.declassify "ARC4+HMAC seal under the SRP session key; the sealed payload is wire-safe"]
(** One-shot sealing under a symmetric key: an SRP direction key, or
    sfskey's password-derived key-encryption key. *)

val open_with : string -> string -> string option

type srp_direction = To_client | To_server

val srp_direction_key : srp_direction -> string -> string
[@@sfs.secret]
(** The key an SRP session seals one direction's messages under,
    derived from the session key as {!Sfs_proto.Keyneg.derive} derives
    k_SC and k_CS: the server's sealed payload ([To_client]) and the
    client's sealed registration ([To_server]) share no keystream and
    no MAC key. *)

val srp_connection : t -> self_cert_path:string -> string -> string
(** The per-connection SRP state machine sfssd hands Auth-service
    connections to. *)
