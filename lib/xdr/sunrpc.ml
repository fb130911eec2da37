(* Sun RPC (RFC 1831) message framing.

   All SFS programs talk Sun RPC (paper section 3.2).  We implement the
   call/reply envelope with AUTH_NONE / AUTH_UNIX credentials and the
   TCP record-marking standard (fragment headers with a last-fragment
   bit), enough to carry the NFS 3 and SFS programs faithfully. *)

let rpc_version = 2

type auth_flavor = Auth_none | Auth_unix of { stamp : int; machine : string; uid : int; gid : int; gids : int list }

type call = {
  xid : int;
  prog : int;
  vers : int;
  proc : int;
  trace : int; (* causal-trace context (simulation annex); 0 = none *)
  span : int;
  cred : auth_flavor;
  args : string; (* pre-marshaled procedure arguments *)
}

type reject_reason =
  | Rpc_mismatch of int * int
  | Auth_error of int

type reply_body =
  | Success of Sfs_util.Slice.t (* marshaled results; decoded, a view into the message *)
  | Prog_unavail
  | Prog_mismatch of int * int
  | Proc_unavail
  | Garbage_args
  | System_err
  | Rejected of reject_reason

type reply = { reply_xid : int; body : reply_body }

type msg = Call of call | Reply of reply

(* --- Auth flavors --- *)

let enc_auth (e : Xdr.enc) (a : auth_flavor) : unit =
  match a with
  | Auth_none ->
      Xdr.enc_uint32 e 0;
      Xdr.enc_opaque e ""
  | Auth_unix { stamp; machine; uid; gid; gids } ->
      Xdr.enc_uint32 e 1;
      Xdr.enc_nested e (fun e ->
          Xdr.enc_uint32 e stamp;
          Xdr.enc_string e machine;
          Xdr.enc_uint32 e uid;
          Xdr.enc_uint32 e gid;
          Xdr.enc_array e Xdr.enc_uint32 gids)

let dec_auth (d : Xdr.dec) : auth_flavor =
  let flavor = Xdr.dec_uint32 d in
  let body = Xdr.dec_opaque_slice d ~max:400 in
  match flavor with
  | 0 -> Auth_none
  | 1 -> (
      match
        Xdr.run_slice body (fun d ->
            let stamp = Xdr.dec_uint32 d in
            let machine = Xdr.dec_string d ~max:255 in
            let uid = Xdr.dec_uint32 d in
            let gid = Xdr.dec_uint32 d in
            let gids = Xdr.dec_array d ~max:16 Xdr.dec_uint32 in
            Auth_unix { stamp; machine; uid; gid; gids })
      with
      | Ok a -> a
      | Result.Error msg -> Xdr.error "bad AUTH_UNIX body: %s" msg)
  | f -> Xdr.error "unsupported auth flavor %d" f

(* --- Messages --- *)

(* A call's envelope; the NFS client marshals the arguments after it. *)
let enc_call_header (e : Xdr.enc) ~(xid : int) ~(prog : int) ~(vers : int) ~(proc : int)
    ~(trace : int) ~(span : int) (cred : auth_flavor) : unit =
  Xdr.enc_uint32 e xid;
  Xdr.enc_uint32 e 0 (* CALL *);
  Xdr.enc_uint32 e rpc_version;
  Xdr.enc_uint32 e prog;
  Xdr.enc_uint32 e vers;
  Xdr.enc_uint32 e proc;
  (* Trace-context annex (DESIGN.md §13) — a simulation-only departure
     from RFC 1831, mirroring Sfsrw.Fs_call.  Zero when tracing is off;
     retransmissions reuse the marshaled bytes, so duplicate-request
     caching is unaffected. *)
  Xdr.enc_uint32 e trace;
  Xdr.enc_uint32 e span;
  enc_auth e cred;
  enc_auth e Auth_none (* verifier *)

(* The one writer of an accepted reply's header, up to its accept_stat. *)
let enc_accepted (e : Xdr.enc) ~(xid : int) (stat : int) : unit =
  Xdr.enc_uint32 e xid;
  Xdr.enc_uint32 e 1 (* REPLY *);
  Xdr.enc_uint32 e 0 (* MSG_ACCEPTED *);
  enc_auth e Auth_none (* verifier *);
  Xdr.enc_uint32 e stat

let enc_success (e : Xdr.enc) ~(xid : int) : unit = enc_accepted e ~xid 0

let enc_reply (e : Xdr.enc) ~(xid : int) (body : reply_body) : unit =
  match body with
  | Success results ->
      enc_success e ~xid;
      Xdr.enc_raw e (Sfs_util.Slice.to_string results)
  | Prog_unavail -> enc_accepted e ~xid 1
  | Prog_mismatch (lo, hi) ->
      enc_accepted e ~xid 2;
      Xdr.enc_uint32 e lo;
      Xdr.enc_uint32 e hi
  | Proc_unavail -> enc_accepted e ~xid 3
  | Garbage_args -> enc_accepted e ~xid 4
  | System_err -> enc_accepted e ~xid 5
  | Rejected reason -> (
      Xdr.enc_uint32 e xid;
      Xdr.enc_uint32 e 1 (* REPLY *);
      Xdr.enc_uint32 e 1 (* MSG_DENIED *);
      match reason with
      | Rpc_mismatch (lo, hi) ->
          Xdr.enc_uint32 e 0;
          Xdr.enc_uint32 e lo;
          Xdr.enc_uint32 e hi
      | Auth_error stat ->
          Xdr.enc_uint32 e 1;
          Xdr.enc_uint32 e stat)

let enc_msg (e : Xdr.enc) (m : msg) : unit =
  match m with
  | Call c ->
      enc_call_header e ~xid:c.xid ~prog:c.prog ~vers:c.vers ~proc:c.proc ~trace:c.trace
        ~span:c.span c.cred;
      Xdr.enc_raw e c.args
  | Reply r -> enc_reply e ~xid:r.reply_xid r.body

let dec_msg (d : Xdr.dec) : msg =
  let xid = Xdr.dec_uint32 d in
  match Xdr.dec_uint32 d with
  | 0 ->
      let rpcvers = Xdr.dec_uint32 d in
      if rpcvers <> rpc_version then Xdr.error "rpc version %d" rpcvers;
      let prog = Xdr.dec_uint32 d in
      let vers = Xdr.dec_uint32 d in
      let proc = Xdr.dec_uint32 d in
      let trace = Xdr.dec_uint32 d in
      let span = Xdr.dec_uint32 d in
      let cred = dec_auth d in
      let _verf = dec_auth d in
      let args = Sfs_util.Slice.to_string (Xdr.dec_rest_slice d) in
      Call { xid; prog; vers; proc; trace; span; cred; args }
  | 1 ->
      let body =
        match Xdr.dec_uint32 d with
        | 0 -> (
            let _verf = dec_auth d in
            match Xdr.dec_uint32 d with
            | 0 -> Success (Xdr.dec_rest_slice d)
            | 1 -> Prog_unavail
            | 2 ->
                let lo = Xdr.dec_uint32 d in
                Prog_mismatch (lo, Xdr.dec_uint32 d)
            | 3 -> Proc_unavail
            | 4 -> Garbage_args
            | 5 -> System_err
            | s -> Xdr.error "bad accept_stat %d" s)
        | 1 -> (
            match Xdr.dec_uint32 d with
            | 0 ->
                let lo = Xdr.dec_uint32 d in
                Rejected (Rpc_mismatch (lo, Xdr.dec_uint32 d))
            | 1 -> Rejected (Auth_error (Xdr.dec_uint32 d))
            | s -> Xdr.error "bad reject_stat %d" s)
        | s -> Xdr.error "bad reply_stat %d" s
      in
      Reply { reply_xid = xid; body }
  | dir -> Xdr.error "bad msg direction %d" dir

let msg_to_string (m : msg) : string = Xdr.encode enc_msg m

let msg_of_string (s : string) : (msg, string) result = Xdr.run s dec_msg

(* --- TCP record marking --- *)

let record_to_string (record : string) : string =
  let n = String.length record in
  if n > 0x7FFFFFFF then invalid_arg "Sunrpc.record_to_string: too large";
  let b = Bytes.create (n + 4) in
  Sfs_util.Bytesutil.put_be32 b ~off:0 (n lor 0x80000000);
  Bytes.blit_string record 0 b 4 n;
  Bytes.unsafe_to_string b

(* Incremental record reassembly, for the stream transports. *)
type reader = { mutable pending : string; mutable records : string list }

let make_reader () : reader = { pending = ""; records = [] }

let reader_feed (r : reader) (bytes : string) : unit =
  r.pending <- r.pending ^ bytes;
  let progress = ref true in
  while !progress do
    progress := false;
    let n = String.length r.pending in
    if n >= 4 then begin
      let hdr = Sfs_util.Bytesutil.int_of_be32 r.pending ~off:0 in
      let last = hdr land 0x80000000 <> 0 in
      let len = hdr land 0x7FFFFFFF in
      if n >= 4 + len then begin
        (* Multi-fragment records concatenate; we treat each complete
           fragment chain as one record (single-fragment in practice). *)
        if not last then Xdr.error "fragmented records unsupported";
        r.records <- String.sub r.pending 4 len :: r.records;
        r.pending <- String.sub r.pending (4 + len) (n - 4 - len);
        progress := true
      end
    end
  done

let reader_next (r : reader) : string option =
  match List.rev r.records with
  | [] -> None
  | first :: rest ->
      r.records <- List.rev rest;
      Some first
