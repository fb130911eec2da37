(** SFS key negotiation (paper section 3.1.1, Figure 3): the client
    fetches the server's public key, checks it against the HostID from
    the self-certifying pathname, and the two sides exchange encrypted
    key halves to derive the directional session keys.

    Forward secrecy comes from the client's short-lived key [K_C]: the
    server's halves are encrypted to it, and clients discard it hourly. *)

module Rabin = Sfs_crypto.Rabin
module Prng = Sfs_crypto.Prng
module Xdr = Sfs_xdr.Xdr

val half_bytes : int
(** Key halves are 20 bytes. *)

type service = Fs | Auth | Fs_readonly
(** Which subsidiary daemon the connection asks sfssd for
    (section 3.2). *)

val service_code : service -> int
val service_of_code : int -> service

(** {2 Wire messages} *)

type connect_req = {
  version : string;
  location : string;
  hostid : string;
  service : service;
  extensions : string list; (** dialect extensions, e.g. ["no-encrypt"] *)
}

val enc_connect_req : Xdr.enc -> connect_req -> unit
val dec_connect_req : Xdr.dec -> connect_req

type connect_res =
  | Connect_ok of { pubkey : Rabin.pub }
  | Connect_revoked of { certificate : string }
      (** a marshaled self-authenticating revocation certificate *)
  | Connect_error of string

val enc_connect_res : Xdr.enc -> connect_res -> unit
val dec_connect_res : Xdr.dec -> connect_res

(** {2 Session keys} *)

type session_keys = {
  kcs : string; [@sfs.secret]
      (** client-to-server key *)
  ksc : string; [@sfs.secret]
      (** server-to-client key *)
  session_id : string; (** SHA-1("SessionInfo", k_SC, k_CS), section 3.1.2 *)
}

val derive :
  server_pub:Rabin.pub ->
  client_pub:Rabin.pub ->
  kc1:string ->
  kc2:string ->
  ks1:string ->
  ks2:string ->
  session_keys

(** {2 Protocol runners} *)

type client_result = { keys : session_keys; server_pub : Rabin.pub }

exception Negotiation_failed of string

exception Host_revoked of string
(** Carries the marshaled revocation certificate the server served. *)

val client_negotiate :
  ?extensions:string list ->
  rng:Prng.t ->
  temp_key:Rabin.priv ->
  location:string ->
  hostid:string ->
  service:service ->
  ((string -> string)[@sfs.sink "wire"]) ->
  client_result
(** Run the two-exchange negotiation over a raw transport.  Checks the
    served key against [hostid] — a man in the middle substituting a
    key fails here.
    @raise Negotiation_failed on mismatch or malformed replies.
    @raise Host_revoked when the server answers with a certificate. *)

val server_negotiate :
  rng:Prng.t -> server_key:Rabin.priv -> string -> (session_keys * string, string) result
(** Handle the client's key-halves message; returns the session keys
    and the marshaled response to send back. *)
