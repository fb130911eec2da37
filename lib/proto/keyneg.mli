(** SFS key negotiation (paper section 3.1.1, Figure 3): the client
    fetches the server's public key, checks it against the HostID from
    the self-certifying pathname, and the two sides exchange encrypted
    key halves to derive the directional session keys.

    Forward secrecy comes from the client's short-lived key [K_C]: the
    server's halves are encrypted to it, and clients discard it hourly. *)

module Rabin = Sfs_crypto.Rabin
module Prng = Sfs_crypto.Prng
module Xdr = Sfs_xdr.Xdr
module Simnet = Sfs_net.Simnet

type service = Fs | Auth | Fs_readonly
(** Which subsidiary daemon the connection asks sfssd for
    (section 3.2). *)

(** {2 Wire messages} *)

type connect_req = {
  version : string;
  location : string;
  hostid : string;
  service : service;
  extensions : string list; (** dialect extensions, e.g. ["no-encrypt"] *)
}

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

(* sfslint: allow SL014 — the session-key derivation the connect-step known answers and allocation guard measure *)
val derive :
  server_pub:Rabin.pub -> client_pub:Rabin.pub -> kc1:string -> kc2:string -> ks1:string -> ks2:string -> session_keys
(** [k_CS = SHA-1("KCS", K_S, k_S1, K_C, k_C1)], [k_SC] likewise over the
    second halves under ["KSC"], and the SessionID over both. *)

(** {2 Protocol runners} *)

val sfs_port : int
(** The one port sfssd listens on (4, as deployed SFS used), and every
    read-only mirror with it. *)

type refusal =
  | Unreachable  (** a refused dial, a crash window or a lost message *)
  | Refused of string  (** the server's error, a malformed reply or a HostID mismatch *)
  | Revoked of string  (** the marshaled revocation certificate the server served *)

val dial :
  Simnet.t ->
  from_host:string ->
  location:string ->
  hostid:string ->
  service:service ->
  extensions:string list ->
  (Simnet.conn * (string -> string) * Rabin.pub, refusal) result
(** The one dial every client makes to an SFS server, sfssd or a
    read-only mirror: connect to [location]'s {!sfs_port}, build one
    window-1 {!Sfs_net.Rpc_mux.of_conn}, and run the connect step
    (Figure 3, messages 1 and 2) naming [service].
    Returns the connection, the mux's exchange, which every later
    handshake on the connection reuses, and the served key.  For [Fs]
    and [Fs_readonly] the key must hash to [hostid]: a substituted key
    is [Refused].  An [Auth] connection sends a zero [hostid]; SRP
    authenticates it instead.  Every failure closes the connection. *)

val negotiate :
  rng:Prng.t ->
  temp_key:Rabin.priv ->
  server_pub:Rabin.pub ->
  ((string -> string)[@sfs.sink "wire"]) ->
  (session_keys, string) result
(** The key-halves exchange (messages 3 and 4) with the server whose
    key {!dial} returned, under the client's short-lived [temp_key];
    [Error] on a malformed or undecryptable reply. *)

val respond :
  location:string ->
  pubkey:Rabin.pub ->
  revoked:(unit -> string option) ->
  (connect_req -> (string -> string, string) result) ->
  string ->
  string
(** One connection's server side of the connect step, for sfssd and
    every read-only mirror.  While [revoked ()] (read as each request
    arrives) is a marshaled certificate, it is served instead of
    [pubkey]; a request naming another Location is refused with ["wrong
    location"].  Otherwise [serve req] returns the handler for every
    later message and [pubkey] is served, or the server's own refusal
    text. *)

val server_negotiate :
  rng:Prng.t -> server_key:Rabin.priv -> string -> (session_keys * string, string) result
(** Handle the client's key-halves message once {!respond} has
    answered the connect step; returns the session keys and the
    marshaled response to send back. *)
