(* SFS key negotiation (paper section 3.1.1, Figure 3).

   The client connects insecurely, asks for the server's public key and
   checks it against the HostID from the self-certifying pathname.  It
   then sends a short-lived public key K_C plus two random key-halves
   encrypted under the server's key; the server replies with its own
   two key-halves encrypted under K_C.  Session keys are SHA-1 hashes
   over both public keys and one half from each side:

       k_CS = SHA-1("KCS", K_S, k_S1, K_C, k_C1)
       k_SC = SHA-1("KSC", K_S, k_S2, K_C, k_C2)

   Forward secrecy: recovering traffic after the fact needs both
   halves, and the server's halves were encrypted to the short-lived
   K_C, which clients regenerate (hourly in the paper) and discard.

   The server learns nothing about the client — "SFS servers do not
   care which clients they talk to, only which users are on those
   clients" — and K_C is anonymous. *)

module Rabin = Sfs_crypto.Rabin
module Sha1 = Sfs_crypto.Sha1
module Prng = Sfs_crypto.Prng
module Xdr = Sfs_xdr.Xdr
module Simnet = Sfs_net.Simnet
module Costmodel = Sfs_net.Costmodel
module Rpc_mux = Sfs_net.Rpc_mux

let half_bytes = 20

type service = Fs | Auth | Fs_readonly

let service_code = function Fs -> 1 | Auth -> 2 | Fs_readonly -> 3

let service_of_code = function
  | 1 -> Fs
  | 2 -> Auth
  | 3 -> Fs_readonly
  | c -> Xdr.error "bad service %d" c

(* --- Step 1: connect request --- *)

type connect_req = {
  version : string;
  location : string;
  hostid : string;
  service : service;
  extensions : string list;
}

let enc_connect_req e (r : connect_req) =
  Xdr.enc_string e r.version;
  Xdr.enc_string e r.location;
  Xdr.enc_fixed_opaque e ~size:Hostid.size r.hostid;
  Xdr.enc_uint32 e (service_code r.service);
  Xdr.enc_array e Xdr.enc_string r.extensions

let dec_connect_req d : connect_req =
  let version = Xdr.dec_string d ~max:32 in
  let location = Xdr.dec_string d ~max:255 in
  let hostid = Xdr.dec_fixed_opaque d ~size:Hostid.size in
  let service = service_of_code (Xdr.dec_uint32 d) in
  let extensions = Xdr.dec_array d ~max:16 (fun d -> Xdr.dec_string d ~max:255) in
  { version; location; hostid; service; extensions }

(* --- Step 2: connect response --- *)

type connect_res =
  | Connect_ok of { pubkey : Rabin.pub }
  | Connect_revoked of { certificate : string } (* marshaled revocation cert *)
  | Connect_error of string

let enc_connect_res e (r : connect_res) =
  match r with
  | Connect_ok { pubkey } ->
      Xdr.enc_uint32 e 0;
      Xdr.enc_opaque e (Rabin.pub_to_string pubkey)
  | Connect_revoked { certificate } ->
      Xdr.enc_uint32 e 1;
      Xdr.enc_opaque e certificate
  | Connect_error msg ->
      Xdr.enc_uint32 e 2;
      Xdr.enc_string e msg

let dec_connect_res d : connect_res =
  match Xdr.dec_uint32 d with
  | 0 -> (
      match Rabin.pub_of_string (Xdr.dec_opaque d ~max:4096) with
      | Some pubkey -> Connect_ok { pubkey }
      | None -> Xdr.error "bad public key")
  | 1 -> Connect_revoked { certificate = Xdr.dec_opaque d ~max:65536 }
  | 2 -> Connect_error (Xdr.dec_string d ~max:255)
  | c -> Xdr.error "bad connect_res tag %d" c

(* --- Steps 3/4: key halves --- *)

type keyneg_req = { kc_pub : Rabin.pub; sealed_client_halves : string }

let enc_keyneg_req e (r : keyneg_req) =
  Xdr.enc_opaque e (Rabin.pub_to_string r.kc_pub);
  Xdr.enc_opaque e r.sealed_client_halves

let dec_keyneg_req d : keyneg_req =
  match Rabin.pub_of_string (Xdr.dec_opaque d ~max:4096) with
  | Some kc_pub -> { kc_pub; sealed_client_halves = Xdr.dec_opaque d ~max:4096 }
  | None -> Xdr.error "bad client public key"

type keyneg_res = { sealed_server_halves : string }

let enc_keyneg_res e (r : keyneg_res) = Xdr.enc_opaque e r.sealed_server_halves
let dec_keyneg_res d : keyneg_res = { sealed_server_halves = Xdr.dec_opaque d ~max:4096 }

let enc_halves e ((h1 : string), (h2 : string)) =
  Xdr.enc_fixed_opaque e ~size:half_bytes h1;
  Xdr.enc_fixed_opaque e ~size:half_bytes h2

let dec_halves d =
  let h1 = Xdr.dec_fixed_opaque d ~size:half_bytes in
  let h2 = Xdr.dec_fixed_opaque d ~size:half_bytes in
  (h1, h2)

(* --- Session key derivation --- *)

type session_keys = { kcs : string; ksc : string; session_id : string }

(* Each key is the SHA-1 of an XDR marshaling hashed where it lies in
   one encoder, and each public key is encoded once for both session
   keys. *)
let derive ~(server_pub : Rabin.pub) ~(client_pub : Rabin.pub) ~(kc1 : string) ~(kc2 : string)
    ~(ks1 : string) ~(ks2 : string) : session_keys =
  let e = Xdr.make_enc () and h = Sha1.init () in
  let hash () =
    Sha1.reset h;
    Sha1.feed_bytes h (Xdr.buffer e) ~off:0 ~len:(Xdr.length e);
    Sha1.final h
  in
  let server_pub = Rabin.pub_to_string server_pub and client_pub = Rabin.pub_to_string client_pub in
  let session_key label ~server_half ~client_half =
    Xdr.reset e;
    Xdr.enc_string e label;
    Xdr.enc_opaque e server_pub;
    Xdr.enc_fixed_opaque e ~size:half_bytes server_half;
    Xdr.enc_opaque e client_pub;
    Xdr.enc_fixed_opaque e ~size:half_bytes client_half;
    hash ()
  in
  let kcs = session_key "KCS" ~server_half:ks1 ~client_half:kc1 in
  let ksc = session_key "KSC" ~server_half:ks2 ~client_half:kc2 in
  (* SessionID = SHA-1("SessionInfo", k_SC, k_CS) — section 3.1.2. *)
  Xdr.reset e;
  Xdr.enc_string e "SessionInfo";
  Xdr.enc_fixed_opaque e ~size:20 ksc;
  Xdr.enc_fixed_opaque e ~size:20 kcs;
  { kcs; ksc; session_id = hash () }

(* --- Client side --- *)

(* sfssd's one port (4, as deployed SFS used), which read-only mirrors
   answer on too; the connect request names the service (section 3.2). *)
let sfs_port = 4

type refusal = Unreachable | Refused of string | Revoked of string (* marshaled revocation cert *)

(* The connect step every SFS connection opens with.  For the file
   services the served key is good iff it hashes to the HostID the user
   named — the heart of self-certifying pathnames.  An Auth connection
   names no HostID: SRP, not the key, authenticates that exchange. *)
let connect ~(location : string) ~(hostid : string) ~(service : service)
    ~(extensions : string list) (exchange : string -> string) : (Rabin.pub, refusal) result =
  let req = { version = "sfs-1"; location; hostid; service; extensions } in
  match Xdr.run (exchange (Xdr.encode enc_connect_req req)) dec_connect_res with
  | Result.Error e -> Error (Refused ("bad connect response: " ^ e))
  | Ok (Connect_error msg) -> Error (Refused msg)
  | Ok (Connect_revoked { certificate }) -> Error (Revoked certificate)
  | Ok (Connect_ok { pubkey }) ->
      if service <> Auth && not (Hostid.check ~location ~pubkey ~hostid) then
        Error (Refused "server key does not match HostID")
      else Ok pubkey

(* The one dial to a server (keyneg.mli); every failure closes the
   connection, and a refused dial or a lost message is [Unreachable]. *)
let dial (net : Simnet.t) ~(from_host : string) ~(location : string) ~(hostid : string)
    ~(service : service) ~(extensions : string list) :
    (Simnet.conn * (string -> string) * Rabin.pub, refusal) result =
  match Simnet.connect net ~from_host ~addr:location ~port:sfs_port ~proto:Costmodel.Tcp with
  | exception (Simnet.No_route _ | Simnet.Timeout) -> Error Unreachable
  | conn ->
      let exchange = Rpc_mux.call (Rpc_mux.of_conn net ~proto:Costmodel.Tcp conn) in
      let step () = connect ~location ~hostid ~service ~extensions exchange in
      let r = try step () with Simnet.Timeout -> Error Unreachable in
      if Result.is_error r then Simnet.close conn;
      Result.map (fun pubkey -> (conn, exchange, pubkey)) r

(* Exchange key halves with the server whose key [dial] returned.
   [temp_key] is the client's short-lived K_C (callers cache one and
   regenerate hourly). *)
let negotiate ~(rng : Prng.t) ~(temp_key : Rabin.priv) ~(server_pub : Rabin.pub)
    (exchange : string -> string) : (session_keys, string) result =
  let kc1 = Prng.random_bytes rng half_bytes in
  let kc2 = Prng.random_bytes rng half_bytes in
  let sealed = Rabin.encrypt_blob server_pub rng (Xdr.encode enc_halves (kc1, kc2)) in
  let req = { kc_pub = temp_key.Rabin.pub; sealed_client_halves = sealed } in
  match Xdr.run (exchange (Xdr.encode enc_keyneg_req req)) dec_keyneg_res with
  | Result.Error e -> Error ("bad keyneg response: " ^ e)
  | Ok { sealed_server_halves } -> (
      match Rabin.decrypt_blob temp_key sealed_server_halves with
      | None -> Error "cannot decrypt server key halves"
      | Some halves -> (
          match Xdr.run halves dec_halves with
          | Result.Error e -> Error ("bad server halves: " ^ e)
          | Ok (ks1, ks2) ->
              Ok (derive ~server_pub ~client_pub:temp_key.Rabin.pub ~kc1 ~kc2 ~ks1 ~ks2)))

(* --- Server side --- *)

(* The connect step every server answers (messages 1 and 2); sfssd
   and every read-only mirror answer through this one function. *)
let respond ~(location : string) ~(pubkey : Rabin.pub) ~(revoked : unit -> string option)
    (serve : connect_req -> (string -> string, string) result) : string -> string =
  let sub = ref None in
  fun bytes ->
    match !sub with
    | Some handler -> handler bytes
    | None ->
        Xdr.encode enc_connect_res
          (match Xdr.run bytes dec_connect_req with
          | Result.Error e -> Connect_error e
          | Ok req -> (
              match revoked () with
              | Some certificate -> Connect_revoked { certificate }
              | None when req.location <> location -> Connect_error "wrong location"
              | None -> (
                  match serve req with
                  | Ok handler ->
                      sub := Some handler;
                      Connect_ok { pubkey }
                  | Error refusal -> Connect_error refusal)))

(* Handle the client's key-halves message after [respond]. *)
let server_negotiate ~(rng : Prng.t) ~(server_key : Rabin.priv) (keyneg_req_bytes : string) :
    (session_keys * string (* response bytes *), string) result =
  match Xdr.run keyneg_req_bytes dec_keyneg_req with
  | Result.Error e -> Result.Error ("bad keyneg request: " ^ e)
  | Ok { kc_pub; sealed_client_halves } -> (
      match Rabin.decrypt_blob server_key sealed_client_halves with
      | None -> Result.Error "cannot decrypt client key halves"
      | Some halves -> (
          match Xdr.run halves dec_halves with
          | Result.Error e -> Result.Error ("bad client halves: " ^ e)
          | Ok (kc1, kc2) ->
              let ks1 = Prng.random_bytes rng half_bytes in
              let ks2 = Prng.random_bytes rng half_bytes in
              let keys =
                derive ~server_pub:server_key.Rabin.pub ~client_pub:kc_pub ~kc1 ~kc2 ~ks1 ~ks2
              in
              let sealed = Rabin.encrypt_blob kc_pub rng (Xdr.encode enc_halves (ks1, ks2)) in
              Ok (keys, Xdr.encode enc_keyneg_res { sealed_server_halves = sealed })))
