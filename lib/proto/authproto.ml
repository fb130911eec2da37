(* SFS user authentication protocol (paper section 3.1.2, Figure 4).

   The client constructs an AuthInfo naming exactly this session of
   exactly this file system; the agent hashes it to an AuthID, signs
   (AuthID, SeqNo) and appends the user's public key; the authserver
   validates the signature and maps the key to Unix credentials; the
   file server checks the AuthID against the session and the sequence
   number against a replay window, then assigns an authentication
   number that tags the user's subsequent file system requests.

   Sequence numbers are not needed for secrecy (the whole exchange rides
   the secure channel); they stop one agent on a client from replaying
   another agent's signed request — which frees the software stack from
   having to keep signed requests secret (paper's "prudent design
   choice given how many layers of software the requests must travel
   through"). *)

module Rabin = Sfs_crypto.Rabin
module Sha1 = Sfs_crypto.Sha1
module Xdr = Sfs_xdr.Xdr

(* --- AuthInfo / AuthID --- *)

type authinfo = { service : string; location : string; hostid : string; session_id : string }

let enc_authinfo e (a : authinfo) =
  Xdr.enc_string e "AuthInfo";
  Xdr.enc_string e a.service;
  Xdr.enc_string e a.location;
  Xdr.enc_fixed_opaque e ~size:Hostid.size a.hostid;
  Xdr.enc_fixed_opaque e ~size:20 a.session_id

let authid_of (a : authinfo) : string = Sha1.digest (Xdr.encode enc_authinfo a)

(* --- Signed request --- *)

let enc_signed_req e ((authid : string), (seqno : int)) =
  Xdr.enc_string e "SignedAuthReq";
  Xdr.enc_fixed_opaque e ~size:20 authid;
  Xdr.enc_uint32 e seqno

let signed_req_bytes ~(authid : string) ~(seqno : int) : string =
  Xdr.encode enc_signed_req (authid, seqno)

type authmsg = { user_pub : Rabin.pub; signature : Rabin.signature }

let enc_authmsg e (m : authmsg) =
  Xdr.enc_opaque e (Rabin.pub_to_string m.user_pub);
  Xdr.enc_opaque e (Rabin.signature_to_string m.signature)

let dec_authmsg d : authmsg =
  match
    ( Rabin.pub_of_string (Xdr.dec_opaque d ~max:4096),
      Rabin.signature_of_string (Xdr.dec_opaque d ~max:4096) )
  with
  | Some user_pub, Some signature -> { user_pub; signature }
  | _ -> Xdr.error "bad authmsg"

(* Agent side: sign an authentication request.  The agent keeps "a
   full audit trail of every private key operation" (section 2.5.1). *)
let make_authmsg ~(key : Rabin.priv) (info : authinfo) ~(seqno : int) : authmsg =
  let authid = authid_of info in
  { user_pub = key.Rabin.pub; signature = Rabin.sign key (signed_req_bytes ~authid ~seqno) }

(* Authserver side: validate the signature, returning the public key on
   success (credential mapping is the caller's database lookup). *)
let validate_authmsg (m : authmsg) ~(authid : string) ~(seqno : int) : bool =
  Rabin.verify m.user_pub (signed_req_bytes ~authid ~seqno) m.signature

let authmsg_to_string (m : authmsg) : string = Xdr.encode enc_authmsg m

let authmsg_of_string (s : string) : authmsg option =
  match Xdr.run s dec_authmsg with Ok m -> Some m | Result.Error _ -> None

(* --- Server-side sequence window ---

   "The server accepts out-of-order sequence numbers within a
   reasonable window to accommodate the possibility of multiple agents
   on the client returning out of order" (footnote 4). *)

(* Window width in sequence numbers: the [seen] mask fits a native int. *)
let width = 62

type seq_window = { mutable highest : int; mutable seen : int (* bitmask below highest *) }

let make_window () : seq_window = { highest = -1; seen = 0 }

(* Accept exactly-once semantics within the window. *)
let window_accept (w : seq_window) (seqno : int) : bool =
  if seqno < 0 then false
  else if seqno > w.highest then begin
    let shift = seqno - w.highest in
    w.seen <- (if shift >= width then 0 else (w.seen lsl shift) land ((1 lsl width) - 1)) lor 1;
    w.highest <- seqno;
    true
  end
  else begin
    let age = w.highest - seqno in
    if age >= width then false (* too old *)
    else if (w.seen lsr age) land 1 = 1 then false (* replay *)
    else begin
      w.seen <- w.seen lor (1 lsl age);
      true
    end
  end
