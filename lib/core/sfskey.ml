(* sfskey — the user key utility (paper section 2.4, "Password
   authentication", and section 2.5.2).

   The travelling-user scenario: "sfskey sfs.lcs.mit.edu" prompts for a
   single password and, via SRP, securely downloads the server's
   self-certifying pathname and an encrypted copy of the user's private
   key.  The agent then holds the key and a /sfs symlink to the server:
   "The process involves no system administrators, no certification
   authorities, and no need for this user to think about anything like
   public keys or self-certifying pathnames."

   Passwords are hardened with eksblowfish before both uses (the SRP
   verifier and the private-key encryption key), with independent
   derivations so the server's copy of the verifier does not reveal the
   key-encryption key — "a safe design because the server never sees
   any password-equivalent data". *)

module Simnet = Sfs_net.Simnet
module Rabin = Sfs_crypto.Rabin
module Srp = Sfs_crypto.Srp
module Sha1 = Sfs_crypto.Sha1
module Prng = Sfs_crypto.Prng
module Keyneg = Sfs_proto.Keyneg
module Xdr = Sfs_xdr.Xdr

type error =
  | Unreachable of string
  | Auth_failed of string
  | Protocol_error of string

let error_to_string = function
  | Unreachable l -> "unreachable: " ^ l
  | Auth_failed e -> "authentication failed: " ^ e
  | Protocol_error e -> "protocol error: " ^ e

(* --- Private-key encryption under the password --- *)

(* Independent of the SRP x-derivation: an attacker holding the
   verifier (g^H(salt, slow)) cannot compute this key without guessing
   the password through eksblowfish. *)
let key_encryption_key ~(cost : int) ~(salt : string) ~(user : string) ~(password : string) : string
    =
  let salt16 = String.sub (Sha1.digest ("privkey-salt:" ^ salt)) 0 16 in
  Sha1.digest ("privkey-enc:" ^ Sfs_crypto.Eksblowfish.hash ~cost ~salt:salt16 (user ^ ":" ^ password))

let encrypt_privkey ~(cost : int) ~(salt : string) ~(user : string) ~(password : string)
    (key : Rabin.priv) : string =
  Authserv.seal_with (key_encryption_key ~cost ~salt ~user ~password) (Rabin.priv_to_string key)

let decrypt_privkey ~(cost : int) ~(salt : string) ~(user : string) ~(password : string)
    (sealed : string) : Rabin.priv option =
  Option.bind
    (Authserv.open_with (key_encryption_key ~cost ~salt ~user ~password) sealed)
    Rabin.priv_of_string

(* --- Local registration (run on the file server, or by an admin) ---

   Creates the user's SRP verifier and deposits the encrypted private
   key, the state later retrieved over the network. *)

let register_local ?(cost = 6) (authserv : Authserv.t) (rng : Prng.t) ~(user : string)
    ~(password : string) ~(key : Rabin.priv) : unit =
  let grp = Srp.default_group in
  let v = Srp.make_verifier ~cost grp rng ~user ~password in
  (match Authserv.register_pubkey authserv ~user key.Rabin.pub with
  | Ok () -> ()
  | Error e -> invalid_arg ("Sfskey.register_local: " ^ e));
  let sealed = encrypt_privkey ~cost ~salt:v.Srp.salt ~user ~password key in
  match Authserv.register_srp authserv ~user v ~encrypted_privkey:(Some sealed) with
  | Ok () -> ()
  | Error e -> invalid_arg ("Sfskey.register_local: " ^ e)

(* --- The network flow: sfskey <user>@<location> --- *)

type fetched = {
  server_path : Pathname.t;
  private_key : Rabin.priv option;
  session_key : string; (* the SRP session key, for follow-up registration *)
  srp_conn : Simnet.conn;
  srp_exchange : string -> string; (* the dial's exchange over [srp_conn] *)
}

(* One SRP exchange; a lost message is [Unreachable]. *)
let srp_call (exchange : string -> string) ~(location : string) (req : Authserv.srp_request) :
    (Authserv.srp_response, error) result =
  match exchange (Xdr.encode Authserv.enc_srp_request req) with
  | exception Simnet.Timeout -> Error (Unreachable location)
  | reply -> (
      match Xdr.run reply Authserv.dec_srp_response with
      | Ok r -> Ok r
      | Result.Error e -> Error (Protocol_error e))

let ( let* ) = Result.bind

(* The SRP login over an accepted connection: mutual authentication,
   then the sealed payload. *)
let login (rng : Prng.t) (conn : Simnet.conn) (exchange : string -> string) ~(location : string)
    ~(user : string) ~(password : string) : (fetched, error) result =
  let grp = Srp.default_group in
  let client = Srp.client_start grp rng ~user ~password in
  let a_pub = Srp.client_pub client in
  let* params = srp_call exchange ~location (Authserv.Srp_hello { user; a_pub }) in
  match params with
  | Authserv.Srp_failed reason -> Error (Auth_failed reason)
  | Authserv.Srp_registered | Authserv.Srp_server_proof _ -> Error (Protocol_error "unexpected response")
  | Authserv.Srp_params { salt; cost; b_pub } -> (
      match Srp.client_finish client ~salt ~cost ~b_pub with
      | None -> Error (Auth_failed "degenerate server parameters")
      | Some session -> (
          let* reply = srp_call exchange ~location (Authserv.Srp_client_proof session.Srp.proof) in
          match reply with
          | Authserv.Srp_failed reason -> Error (Auth_failed reason)
          | Authserv.Srp_registered | Authserv.Srp_params _ ->
              Error (Protocol_error "unexpected response")
          | Authserv.Srp_server_proof { proof; sealed } -> (
              (* Mutual authentication: the server's proof shows it knew
                 the verifier; a fake server learns nothing usable. *)
              if not (Srp.check_server_proof grp ~a_pub session ~proof) then
                Error (Auth_failed "server failed its proof")
              else
                match
                  Authserv.open_with (Authserv.srp_direction_key To_client session.Srp.key) sealed
                with
                | None -> Error (Protocol_error "cannot open sealed payload")
                | Some plaintext -> (
                    match Xdr.run plaintext Authserv.dec_srp_payload with
                    | Result.Error e -> Error (Protocol_error e)
                    | Ok payload -> (
                        match Pathname.of_string payload.Authserv.self_cert_path with
                        | None -> Error (Protocol_error "bad self-certifying pathname")
                        | Some (server_path, _) ->
                            let private_key =
                              Option.bind payload.Authserv.encrypted_key
                                (decrypt_privkey ~cost ~salt ~user ~password)
                            in
                            Ok
                              {
                                server_path;
                                private_key;
                                session_key = session.Srp.key;
                                srp_conn = conn;
                                srp_exchange = exchange;
                              })))))

(* "sfskey add user@location": fetch the self-certifying pathname and
   private key with nothing but a password.  The dial closes the
   connection on a refusal, and a failed login closes it here. *)
let fetch (net : Simnet.t) (rng : Prng.t) ~(from_host : string) ~(location : string)
    ~(user : string) ~(password : string) : (fetched, error) result =
  let* conn, exchange, _ =
    Keyneg.dial net ~from_host ~location ~hostid:(String.make Sfs_proto.Hostid.size '\000')
      ~service:Keyneg.Auth ~extensions:[]
    |> Result.map_error (function
         | Keyneg.Unreachable -> Unreachable location
         | Keyneg.Refused e -> Protocol_error e
         | Keyneg.Revoked _ -> Auth_failed "server key revoked")
  in
  match login rng conn exchange ~location ~user ~password with
  | Ok _ as ok -> ok
  | Error _ as e ->
      Simnet.close conn;
      e

(* Register new key material over an authenticated SRP session. *)
let register_remote (f : fetched) (reg : Authserv.registration) : (unit, error) result =
  let sealed =
    Authserv.seal_with
      (Authserv.srp_direction_key To_server f.session_key)
      (Xdr.encode Authserv.enc_registration reg)
  in
  let* reply =
    srp_call f.srp_exchange ~location:(Pathname.location f.server_path) (Authserv.Srp_register sealed)
  in
  match reply with
  | Authserv.Srp_registered -> Ok ()
  | Authserv.Srp_failed reason -> Error (Auth_failed reason)
  | Authserv.Srp_params _ | Authserv.Srp_server_proof _ -> Error (Protocol_error "unexpected response")

(* The complete "sfskey add" command: fetch, install the key in the
   agent, and link the server under /sfs by its Location (paper's
   example: /sfs/sfs.lcs.mit.edu -> /sfs/sfs.lcs.mit.edu:vefvsv5w...). *)
let add (net : Simnet.t) (rng : Prng.t) (agent : Agent.t) ~(from_host : string)
    ~(location : string) ~(user : string) ~(password : string) : (Pathname.t, error) result =
  let* f = fetch net rng ~from_host ~location ~user ~password in
  Simnet.close f.srp_conn;
  (match f.private_key with Some k -> Agent.add_key agent k | None -> ());
  Agent.add_link agent ~name:location ~target:(Pathname.to_string f.server_path);
  Ok f.server_path
