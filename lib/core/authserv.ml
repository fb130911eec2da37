(* authserv — the SFS authentication server (paper sections 2.5, 2.5.2).

   Translates authentication requests into credentials by consulting
   databases mapping public keys to users.  Databases are writable or
   read-only; each writable database keeps two versions: a *public* one
   (public keys and credentials, safe to export to the world over SFS)
   and a *private* one (SRP verifiers and encrypted private keys, which
   a hostile server could use for offline guessing).  Read-only
   databases are local copies of some other server's public database,
   imported over SFS and usable even when the origin is unreachable.

   authserv also handles user key management: sfskey connects over the
   network (via SRP) to change public keys, register SRP data and
   deposit eksblowfish-encrypted private keys (section 2.4, "Password
   authentication").  Failed password attempts are counted and logged —
   the paper's defence that on-line guessing "can be detected and
   stopped". *)

module Simos = Sfs_os.Simos
module Rabin = Sfs_crypto.Rabin
module Srp = Sfs_crypto.Srp
module Sha1 = Sfs_crypto.Sha1
module Prng = Sfs_crypto.Prng
module Authproto = Sfs_proto.Authproto
module Xdr = Sfs_xdr.Xdr
module Obs = Sfs_obs.Obs

type public_record = {
  pr_user : string;
  pr_pubkey : Rabin.pub option;
  pr_cred : Simos.cred;
}

type private_record = {
  mutable srp : Srp.verifier option;
  mutable encrypted_privkey : string option;
  mutable key_share : string option; (* serialized Keysplit share, for split-key agents *)
}

type db = {
  db_name : string;
  writable : bool;
  public : (string, public_record) Hashtbl.t; (* by user name *)
  private_ : (string, private_record) Hashtbl.t;
}

type t = {
  rng : Prng.t;
  mutable dbs : db list; (* searched in order *)
  mutable failed_attempts : (string * string) list; (* user, reason — the audit log *)
  obs : Obs.registry option;
}

let create ?obs (rng : Prng.t) : t =
  let local = { db_name = "local"; writable = true; public = Hashtbl.create 16; private_ = Hashtbl.create 16 } in
  { rng; dbs = [ local ]; failed_attempts = []; obs }

let local_db (t : t) : db = List.find (fun db -> db.writable) t.dbs

let find_user (t : t) (user : string) : (db * public_record) option =
  List.find_map
    (fun db -> Option.map (fun r -> (db, r)) (Hashtbl.find_opt db.public user))
    t.dbs

(* --- Management operations --- *)

let add_user (t : t) ~(user : string) ~(cred : Simos.cred) : unit =
  let db = local_db t in
  if Hashtbl.mem db.public user then invalid_arg ("Authserv.add_user: duplicate " ^ user);
  Hashtbl.replace db.public user { pr_user = user; pr_pubkey = None; pr_cred = cred };
  Hashtbl.replace db.private_ user { srp = None; encrypted_privkey = None; key_share = None }

(* "authserv can optionally let users who actually log in to a file
   server register initial public keys" — and sfskey updates them over
   SRP-authenticated sessions. *)
let register_pubkey (t : t) ~(user : string) (pubkey : Rabin.pub) : (unit, string) result =
  match find_user t user with
  | None -> Error "no such user"
  | Some (db, r) ->
      if not db.writable then Error "database is read-only"
      else begin
        Hashtbl.replace db.public user { r with pr_pubkey = Some pubkey };
        Ok ()
      end

let register_srp (t : t) ~(user : string) (verifier : Srp.verifier)
    ~(encrypted_privkey : string option) : (unit, string) result =
  match find_user t user with
  | None -> Error "no such user"
  | Some (db, _) ->
      if not db.writable then Error "database is read-only"
      else begin
        let pr =
          match Hashtbl.find_opt db.private_ user with
          | Some pr -> pr
          | None ->
              let pr = { srp = None; encrypted_privkey = None; key_share = None } in
              Hashtbl.replace db.private_ user pr;
              pr
        in
        pr.srp <- Some verifier;
        (match encrypted_privkey with Some _ -> pr.encrypted_privkey <- encrypted_privkey | None -> ());
        Ok ()
      end

let srp_verifier (t : t) ~(user : string) : Srp.verifier option =
  match find_user t user with
  | None -> None
  | Some (db, _) -> Option.bind (Hashtbl.find_opt db.private_ user) (fun pr -> pr.srp)

let encrypted_privkey (t : t) ~(user : string) : string option =
  match find_user t user with
  | None -> None
  | Some (db, _) -> Option.bind (Hashtbl.find_opt db.private_ user) (fun pr -> pr.encrypted_privkey)

(* Key-holder service for split-key agents (section 2.5.1): the
   authserver stores one share of the user's private key; the share
   alone is information-theoretically useless. *)
let register_key_share (t : t) ~(user : string) (share : string) : (unit, string) result =
  match find_user t user with
  | None -> Error "no such user"
  | Some (db, _) ->
      if not db.writable then Error "database is read-only"
      else begin
        (match Hashtbl.find_opt db.private_ user with
        | Some pr -> pr.key_share <- Some share
        | None ->
            Hashtbl.replace db.private_ user
              { srp = None; encrypted_privkey = None; key_share = Some share });
        Ok ()
      end

let key_share (t : t) ~(user : string) : string option =
  match find_user t user with
  | None -> None
  | Some (db, _) -> Option.bind (Hashtbl.find_opt db.private_ user) (fun pr -> pr.key_share)

let log_failure (t : t) ~(user : string) (reason : string) : unit =
  t.failed_attempts <- (user, reason) :: t.failed_attempts

let failed_attempts (t : t) : (string * string) list = t.failed_attempts

(* --- Credential mapping (Figure 4, steps 4-5) --- *)

(* The databases in search order, the first record bound to the key.
   Within one database the first is the first in its table's order. *)
let cred_of_pubkey (t : t) (pubkey : Rabin.pub) : (string * Simos.cred) option =
  List.find_map
    (fun db ->
      Hashtbl.fold
        (fun _ r acc ->
          match acc with
          | Some _ -> acc
          | None -> (
              match r.pr_pubkey with
              | Some pk when Rabin.pub_equal pk pubkey -> Some (r.pr_user, r.pr_cred)
              | _ -> None))
        db.public None)
    t.dbs

(* Validate a signed authentication request and map it to credentials.
   The sequence-number window is per session and lives with the file
   server; here we verify the signature and the key mapping. *)
let validate (t : t) ~(authmsg : string) ~(authid : string) ~(seqno : int) :
    (string * Simos.cred, string) result =
  let res =
    Obs.span t.obs ~cat:"auth" "validate" (fun () ->
        match Authproto.authmsg_of_string authmsg with
        | None -> Error "unparsable authentication message"
        | Some msg -> (
            if not (Authproto.validate_authmsg msg ~authid ~seqno) then Error "bad signature"
            else
              match cred_of_pubkey t msg.Authproto.user_pub with
              | Some (user, cred) -> Ok (user, cred)
              | None -> Error "unknown public key"))
  in
  (match res with
  | Ok _ -> Obs.incr t.obs "auth.validate.ok"
  | Error _ -> Obs.incr t.obs "auth.validate.fail");
  res

(* File servers consult authserv through this indirection so the same
   server code can talk to one instance or to a consistent-hash shard
   ring (Authshard). *)
type backend = {
  b_validate : authmsg:string -> authid:string -> seqno:int -> (string * Simos.cred, string) result;
  b_log_failure : user:string -> reason:string -> unit;
}

let backend (t : t) : backend =
  {
    b_validate = (fun ~authmsg ~authid ~seqno -> validate t ~authmsg ~authid ~seqno);
    b_log_failure = (fun ~user ~reason -> log_failure t ~user reason);
  }

(* --- Public database export/import (section 2.5.2) ---

   "A central server can easily maintain the keys of all users in a
   department and export its public database to separately-administered
   file servers without trusting them."  The export contains nothing
   password-derived. *)

let enc_cred e (c : Simos.cred) =
  Xdr.enc_uint32 e c.Simos.cred_uid;
  Xdr.enc_uint32 e c.Simos.cred_gid;
  Xdr.enc_array e Xdr.enc_uint32 c.Simos.cred_groups

let dec_cred d : Simos.cred =
  let cred_uid = Xdr.dec_uint32 d in
  let cred_gid = Xdr.dec_uint32 d in
  let cred_groups = Xdr.dec_array d ~max:64 Xdr.dec_uint32 in
  { Simos.cred_uid; cred_gid; cred_groups }

let export_public_db (t : t) : string =
  let db = local_db t in
  let records = Hashtbl.fold (fun _ r acc -> r :: acc) db.public [] in
  let records = List.sort (fun a b -> compare a.pr_user b.pr_user) records in
  Xdr.encode
    (fun e () ->
      Xdr.enc_array e
        (fun e r ->
          Xdr.enc_string e r.pr_user;
          Xdr.enc_option e (fun e pk -> Xdr.enc_opaque e (Rabin.pub_to_string pk)) r.pr_pubkey;
          enc_cred e r.pr_cred)
        records)
    ()

let import_public_db (t : t) ~(name : string) (bytes : string) : (unit, string) result =
  match
    Xdr.run bytes (fun d ->
        Xdr.dec_array d ~max:100000 (fun d ->
            let pr_user = Xdr.dec_string d ~max:64 in
            let pr_pubkey =
              Xdr.dec_option d (fun d ->
                  match Rabin.pub_of_string (Xdr.dec_opaque d ~max:4096) with
                  | Some pk -> pk
                  | None -> Xdr.error "bad public key")
            in
            let pr_cred = dec_cred d in
            { pr_user; pr_pubkey; pr_cred }))
  with
  | Result.Error e -> Error e
  | Ok records ->
      let db =
        { db_name = name; writable = false; public = Hashtbl.create 64; private_ = Hashtbl.create 0 }
      in
      List.iter (fun r -> Hashtbl.replace db.public r.pr_user r) records;
      (* Replace a previous import of the same name (refresh); keep a
         stale copy usable when the origin is unreachable by simply not
         requiring refreshes. *)
      t.dbs <- (List.filter (fun d -> d.db_name <> name) t.dbs) @ [ db ];
      Ok ()

(* --- The SRP service (sfskey <-> authserv, section 2.4) ---

   Message flow inside an (unencrypted) connection — SRP itself
   protects the exchange:

     C->S  Srp_hello {user, A}
     S->C  Srp_params {salt, cost, B}
     C->S  Srp_client_proof {M1}
     S->C  Srp_server_proof {M2, sealed}   (sealed: payload under k_SC)
     C->S  Srp_register {sealed}            (optional; sealed under k_CS)

   k_SC and k_CS are the direction keys drawn from the SRP session key
   K ({!srp_direction_key}).  The sealed payload carries the server's
   self-certifying pathname and the user's encrypted private key:
   everything sfskey needs to get the user "secure access to his files
   back at MIT" from a password. *)

type srp_payload = { self_cert_path : string; encrypted_key : string option }

let enc_srp_payload e (p : srp_payload) =
  Xdr.enc_string e p.self_cert_path;
  Xdr.enc_option e Xdr.enc_opaque p.encrypted_key

let dec_srp_payload d : srp_payload =
  let self_cert_path = Xdr.dec_string d ~max:512 in
  let encrypted_key = Xdr.dec_option d (fun d -> Xdr.dec_opaque d ~max:65536) in
  { self_cert_path; encrypted_key }

type srp_request =
  | Srp_hello of { user : string; a_pub : Sfs_bignum.Nat.t }
  | Srp_client_proof of string
  | Srp_register of string (* a registration record, sealed under the session's k_CS *)

type srp_response =
  | Srp_params of { salt : string; cost : int; b_pub : Sfs_bignum.Nat.t }
  | Srp_server_proof of { proof : string; sealed : string }
  | Srp_registered
  | Srp_failed of string

let enc_nat e (n : Sfs_bignum.Nat.t) = Xdr.enc_opaque e (Sfs_bignum.Nat.to_bytes_be n)
let dec_nat d : Sfs_bignum.Nat.t = Sfs_bignum.Nat.of_bytes_be (Xdr.dec_opaque d ~max:1024)

let enc_srp_request e (r : srp_request) =
  match r with
  | Srp_hello { user; a_pub } ->
      Xdr.enc_uint32 e 0;
      Xdr.enc_string e user;
      enc_nat e a_pub
  | Srp_client_proof proof ->
      Xdr.enc_uint32 e 1;
      Xdr.enc_opaque e proof
  | Srp_register sealed ->
      Xdr.enc_uint32 e 2;
      Xdr.enc_opaque e sealed

let dec_srp_request d : srp_request =
  match Xdr.dec_uint32 d with
  | 0 ->
      let user = Xdr.dec_string d ~max:64 in
      let a_pub = dec_nat d in
      Srp_hello { user; a_pub }
  | 1 -> Srp_client_proof (Xdr.dec_opaque d ~max:64)
  | 2 -> Srp_register (Xdr.dec_opaque d ~max:0x20000)
  | tag -> Xdr.error "bad srp request %d" tag

let enc_srp_response e (r : srp_response) =
  match r with
  | Srp_params { salt; cost; b_pub } ->
      Xdr.enc_uint32 e 0;
      Xdr.enc_opaque e salt;
      Xdr.enc_uint32 e cost;
      enc_nat e b_pub
  | Srp_server_proof { proof; sealed } ->
      Xdr.enc_uint32 e 1;
      Xdr.enc_opaque e proof;
      Xdr.enc_opaque e sealed
  | Srp_registered -> Xdr.enc_uint32 e 2
  | Srp_failed reason ->
      Xdr.enc_uint32 e 3;
      Xdr.enc_string e reason

let dec_srp_response d : srp_response =
  match Xdr.dec_uint32 d with
  | 0 ->
      let salt = Xdr.dec_opaque d ~max:64 in
      let cost = Xdr.dec_uint32 d in
      let b_pub = dec_nat d in
      Srp_params { salt; cost; b_pub }
  | 1 ->
      let proof = Xdr.dec_opaque d ~max:64 in
      let sealed = Xdr.dec_opaque d ~max:0x20000 in
      Srp_server_proof { proof; sealed }
  | 2 -> Srp_registered
  | 3 -> Srp_failed (Xdr.dec_string d ~max:255)
  | tag -> Xdr.error "bad srp response %d" tag

(* Registration record sent inside an authenticated SRP session. *)
type registration = {
  reg_pubkey : Rabin.pub option;
  reg_srp : (string (* salt *) * int (* cost *) * Sfs_bignum.Nat.t) option;
  reg_encrypted_key : string option;
}

let enc_registration e (r : registration) =
  Xdr.enc_option e (fun e pk -> Xdr.enc_opaque e (Rabin.pub_to_string pk)) r.reg_pubkey;
  Xdr.enc_option e
    (fun e (salt, cost, v) ->
      Xdr.enc_opaque e salt;
      Xdr.enc_uint32 e cost;
      enc_nat e v)
    r.reg_srp;
  Xdr.enc_option e Xdr.enc_opaque r.reg_encrypted_key

let dec_registration d : registration =
  let reg_pubkey =
    Xdr.dec_option d (fun d ->
        match Rabin.pub_of_string (Xdr.dec_opaque d ~max:4096) with
        | Some pk -> pk
        | None -> Xdr.error "bad public key")
  in
  let reg_srp =
    Xdr.dec_option d (fun d ->
        let salt = Xdr.dec_opaque d ~max:64 in
        let cost = Xdr.dec_uint32 d in
        let v = dec_nat d in
        (salt, cost, v))
  in
  let reg_encrypted_key = Xdr.dec_option d (fun d -> Xdr.dec_opaque d ~max:65536) in
  { reg_pubkey; reg_srp; reg_encrypted_key }

(* Sealing under a symmetric key: a one-shot secure channel. *)
let seal_with (key : string) (plaintext : string) : string =
  let ch = Sfs_proto.Channel.create ~send_key:key ~recv_key:key () in
  Sfs_proto.Channel.seal ch plaintext

let open_with (key : string) (wire : string) : string option =
  let ch = Sfs_proto.Channel.create ~send_key:key ~recv_key:key () in
  match Sfs_proto.Channel.open_ ch wire with
  | Ok plaintext -> Some plaintext
  | Error (`Mac_mismatch | `Replay) -> None

(* An SRP session's key for one direction, drawn from the session key K
   as Keyneg.derive draws k_SC and k_CS: the server's sealed payload and
   the client's sealed registration share no keystream and no MAC key,
   so neither can be sent back as the other. *)
type srp_direction = To_client | To_server

let srp_direction_key (dir : srp_direction) (key : string) : string =
  let label = match dir with To_client -> "SRP-SC" | To_server -> "SRP-CS" in
  Sha1.digest
    (Xdr.encode
       (fun e () ->
         Xdr.enc_string e label;
         Xdr.enc_opaque e key)
       ())

(* Per-connection SRP server state machine. *)
type srp_session_state =
  | Awaiting_hello
  | Awaiting_proof of { user : string; server : Srp.server; a_pub : Sfs_bignum.Nat.t }
  | Authenticated of { user : string; key : string }

let srp_connection (t : t) ~(self_cert_path : string) : string -> string =
  let state = ref Awaiting_hello in
  fun bytes ->
    let respond r = Xdr.encode enc_srp_response r in
    match Xdr.run bytes dec_srp_request with
    | Result.Error e -> respond (Srp_failed ("unparsable: " ^ e))
    | Ok req -> (
        match (!state, req) with
        | Awaiting_hello, Srp_hello { user; a_pub } -> (
            match srp_verifier t ~user with
            | None ->
                log_failure t ~user "unknown user";
                respond (Srp_failed "authentication failed")
            | Some v ->
                let server = Srp.server_start Srp.default_group t.rng v in
                state := Awaiting_proof { user; server; a_pub };
                respond
                  (Srp_params { salt = v.Srp.salt; cost = v.Srp.cost; b_pub = Srp.server_pub server }))
        | Awaiting_proof { user; server; a_pub }, Srp_client_proof proof -> (
            match Srp.server_finish server ~a_pub with
            | None ->
                log_failure t ~user "degenerate SRP value";
                state := Awaiting_hello;
                respond (Srp_failed "authentication failed")
            | Some session ->
                if not (Srp.check_client_proof session ~proof) then begin
                  log_failure t ~user "bad password";
                  state := Awaiting_hello;
                  respond (Srp_failed "authentication failed")
                end
                else begin
                  state := Authenticated { user; key = session.Srp.key };
                  let payload =
                    { self_cert_path; encrypted_key = encrypted_privkey t ~user }
                  in
                  let sealed =
                    seal_with
                      (srp_direction_key To_client session.Srp.key)
                      (Xdr.encode enc_srp_payload payload)
                  in
                  respond
                    (Srp_server_proof
                       { proof = Srp.server_proof Srp.default_group ~a_pub session; sealed })
                end)
        | Authenticated { user; key }, Srp_register sealed -> (
            match open_with (srp_direction_key To_server key) sealed with
            | None -> respond (Srp_failed "bad registration seal")
            | Some plaintext -> (
                match Xdr.run plaintext dec_registration with
                | Result.Error e -> respond (Srp_failed e)
                | Ok reg -> (
                    let r1 =
                      match reg.reg_pubkey with
                      | Some pk -> register_pubkey t ~user pk
                      | None -> Ok ()
                    in
                    let r2 =
                      match reg.reg_srp with
                      | Some (salt, cost, v) ->
                          register_srp t ~user { Srp.user; salt; v; cost }
                            ~encrypted_privkey:reg.reg_encrypted_key
                      | None -> (
                          match reg.reg_encrypted_key with
                          | Some _ -> (
                              match srp_verifier t ~user with
                              | Some v ->
                                  register_srp t ~user v ~encrypted_privkey:reg.reg_encrypted_key
                              | None -> Error "no SRP verifier to attach key to")
                          | None -> Ok ())
                    in
                    match (r1, r2) with
                    | Ok (), Ok () -> respond Srp_registered
                    | Error e, _ | _, Error e -> respond (Srp_failed e))))
        | _, _ -> respond (Srp_failed "protocol error"))
