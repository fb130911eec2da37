(* The SFS read-write file protocol (paper section 3.3).

   "Virtually identical to NFS 3", with three changes:

   - requests are tagged with an authentication number (established by
     the Figure 4 protocol) instead of trusting AUTH_UNIX claims;
   - every returned attribute structure carries a lease;
   - replies piggyback lease-invalidation callbacks.

   This module defines the message formats inside the secure channel:
   a tagged union of file system calls and authentication requests, and
   replies carrying the invalidation list.  The server and client logic
   live in sfs_core (Server/Client); this is the shared wire layer. *)

open Sfs_nfs.Nfs_types
module Xdr = Sfs_xdr.Xdr
module Slice = Sfs_util.Slice

type request =
  | Fs_call of { xid : int; authno : int; proc : int; trace : int; span : int; args : string }
  | Auth_req of { seqno : int; authmsg : string }

type response =
  | Fs_reply of { results : Slice.t; invalidations : fh list }
  | Auth_granted of { authno : int; seqno : int }
  | Auth_denied of { seqno : int; reason : string }
  | Proto_error of string

let enc_fs_call e ~xid ~authno ~proc ~trace ~span (args : Xdr.enc -> unit) =
  Xdr.enc_uint32 e 0;
  Xdr.enc_uint32 e xid;
  Xdr.enc_uint32 e authno;
  Xdr.enc_uint32 e proc;
  (* Trace context (tracing annex): lets the server attach its spans to
     the causing client op.  Zero when tracing is off.  Outside [args]
     so a retransmission with a different context still hits the
     duplicate request cache. *)
  Xdr.enc_uint32 e trace;
  Xdr.enc_uint32 e span;
  Xdr.enc_nested e args

let enc_request e (r : request) =
  match r with
  | Fs_call { xid; authno; proc; trace; span; args } ->
      enc_fs_call e ~xid ~authno ~proc ~trace ~span (fun e -> Xdr.enc_raw e args)
  | Auth_req { seqno; authmsg } ->
      Xdr.enc_uint32 e 1;
      Xdr.enc_uint32 e seqno;
      Xdr.enc_opaque e authmsg

let dec_request d : request =
  match Xdr.dec_uint32 d with
  | 0 ->
      let xid = Xdr.dec_uint32 d in
      let authno = Xdr.dec_uint32 d in
      let proc = Xdr.dec_uint32 d in
      let trace = Xdr.dec_uint32 d in
      let span = Xdr.dec_uint32 d in
      let args = Xdr.dec_opaque d ~max:0x200000 in
      Fs_call { xid; authno; proc; trace; span; args }
  | 1 ->
      let seqno = Xdr.dec_uint32 d in
      let authmsg = Xdr.dec_opaque d ~max:8192 in
      Auth_req { seqno; authmsg }
  | t -> Xdr.error "bad request tag %d" t

(* The invalidations are taken only once the results are written, so a
   failed dispatch leaves them queued for the next reply. *)
let enc_fs_reply e (results : Xdr.enc -> bool) (invalidations : unit -> fh list) : bool =
  Xdr.enc_uint32 e 0;
  Xdr.enc_nested e results
  && begin
       Xdr.enc_array e enc_fh (invalidations ());
       true
     end

let enc_response e (r : response) =
  match r with
  | Fs_reply { results; invalidations } ->
      Xdr.enc_uint32 e 0;
      Xdr.enc_opaque_slice e results;
      Xdr.enc_array e enc_fh invalidations
  | Auth_granted { authno; seqno } ->
      Xdr.enc_uint32 e 1;
      Xdr.enc_uint32 e authno;
      Xdr.enc_uint32 e seqno
  | Auth_denied { seqno; reason } ->
      Xdr.enc_uint32 e 2;
      Xdr.enc_uint32 e seqno;
      Xdr.enc_string e reason
  | Proto_error msg ->
      Xdr.enc_uint32 e 3;
      Xdr.enc_string e msg

(* An Fs_reply's [results] stays a view into the decoded buffer: on the
   client that is the opened frame, so the reply is never carved out
   with a copy. *)
let dec_response d : response =
  match Xdr.dec_uint32 d with
  | 0 ->
      let results = Xdr.dec_opaque_slice d ~max:0x200000 in
      let invalidations = Xdr.dec_array d ~max:4096 dec_fh in
      Fs_reply { results; invalidations }
  | 1 ->
      let authno = Xdr.dec_uint32 d in
      let seqno = Xdr.dec_uint32 d in
      Auth_granted { authno; seqno }
  | 2 ->
      let seqno = Xdr.dec_uint32 d in
      let reason = Xdr.dec_string d ~max:255 in
      Auth_denied { seqno; reason }
  | 3 -> Proto_error (Xdr.dec_string d ~max:255)
  | t -> Xdr.error "bad response tag %d" t

let request_to_string (r : request) : string = Xdr.encode enc_request r
let response_to_string (r : response) : string = Xdr.encode enc_response r

let request_of_slice (plain : Slice.t) : (request, string) result = Xdr.run_slice plain dec_request
let response_of_slice (frame : Slice.t) : (response, string) result = Xdr.run_slice frame dec_response

(* The anonymous authentication number (paper section 3.1.2). *)
let authno_anonymous = 0

(* Dialect-private procedure: fetch the file system's root handle
   (subsumes the separate MOUNT program of plain NFS). *)
let proc_getroot = 100
