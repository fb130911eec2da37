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
  | Success of string (* marshaled results *)
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
      let body =
        Xdr.encode
          (fun e () ->
            Xdr.enc_uint32 e stamp;
            Xdr.enc_string e machine;
            Xdr.enc_uint32 e uid;
            Xdr.enc_uint32 e gid;
            Xdr.enc_array e Xdr.enc_uint32 gids)
          ()
      in
      Xdr.enc_opaque e body

let dec_auth (d : Xdr.dec) : auth_flavor =
  let flavor = Xdr.dec_uint32 d in
  let body = Xdr.dec_opaque d ~max:400 in
  match flavor with
  | 0 -> Auth_none
  | 1 -> (
      match
        Xdr.run body (fun d ->
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

let enc_msg (e : Xdr.enc) (m : msg) : unit =
  match m with
  | Call c ->
      Xdr.enc_uint32 e c.xid;
      Xdr.enc_uint32 e 0 (* CALL *);
      Xdr.enc_uint32 e rpc_version;
      Xdr.enc_uint32 e c.prog;
      Xdr.enc_uint32 e c.vers;
      Xdr.enc_uint32 e c.proc;
      (* Trace-context annex (DESIGN.md §13) — a simulation-only
         departure from RFC 1831, mirroring Sfsrw.Fs_call.  Zero when
         tracing is off; retransmissions reuse the marshaled bytes, so
         duplicate-request caching is unaffected. *)
      Xdr.enc_uint32 e c.trace;
      Xdr.enc_uint32 e c.span;
      enc_auth e c.cred;
      enc_auth e Auth_none (* verifier *);
      Xdr.enc_raw e c.args
  | Reply r -> (
      Xdr.enc_uint32 e r.reply_xid;
      Xdr.enc_uint32 e 1 (* REPLY *);
      match r.body with
      | Rejected reason -> (
          Xdr.enc_uint32 e 1 (* MSG_DENIED *);
          match reason with
          | Rpc_mismatch (lo, hi) ->
              Xdr.enc_uint32 e 0;
              Xdr.enc_uint32 e lo;
              Xdr.enc_uint32 e hi
          | Auth_error stat ->
              Xdr.enc_uint32 e 1;
              Xdr.enc_uint32 e stat)
      | accepted -> (
          Xdr.enc_uint32 e 0 (* MSG_ACCEPTED *);
          enc_auth e Auth_none (* verifier *);
          match accepted with
          | Success results ->
              Xdr.enc_uint32 e 0;
              Xdr.enc_raw e results
          | Prog_unavail -> Xdr.enc_uint32 e 1
          | Prog_mismatch (lo, hi) ->
              Xdr.enc_uint32 e 2;
              Xdr.enc_uint32 e lo;
              Xdr.enc_uint32 e hi
          | Proc_unavail -> Xdr.enc_uint32 e 3
          | Garbage_args -> Xdr.enc_uint32 e 4
          | System_err -> Xdr.enc_uint32 e 5
          | Rejected _ -> assert false))

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
      let args = Xdr.dec_rest d in
      Call { xid; prog; vers; proc; trace; span; cred; args }
  | 1 -> (
      match Xdr.dec_uint32 d with
      | 0 -> (
          let _verf = dec_auth d in
          match Xdr.dec_uint32 d with
          | 0 ->
              let results = Xdr.dec_rest d in
              Reply { reply_xid = xid; body = Success results }
          | 1 -> Reply { reply_xid = xid; body = Prog_unavail }
          | 2 ->
              let lo = Xdr.dec_uint32 d in
              let hi = Xdr.dec_uint32 d in
              Reply { reply_xid = xid; body = Prog_mismatch (lo, hi) }
          | 3 -> Reply { reply_xid = xid; body = Proc_unavail }
          | 4 -> Reply { reply_xid = xid; body = Garbage_args }
          | 5 -> Reply { reply_xid = xid; body = System_err }
          | s -> Xdr.error "bad accept_stat %d" s)
      | 1 -> (
          match Xdr.dec_uint32 d with
          | 0 ->
              let lo = Xdr.dec_uint32 d in
              let hi = Xdr.dec_uint32 d in
              Reply { reply_xid = xid; body = Rejected (Rpc_mismatch (lo, hi)) }
          | 1 -> Reply { reply_xid = xid; body = Rejected (Auth_error (Xdr.dec_uint32 d)) }
          | s -> Xdr.error "bad reject_stat %d" s)
      | s -> Xdr.error "bad reply_stat %d" s)
  | dir -> Xdr.error "bad msg direction %d" dir

(* [?enc] lets a connection reuse one encoder across calls (reset +
   encode); the default allocates as before. *)
let msg_to_string ?enc (m : msg) : string =
  match enc with
  | None -> Xdr.encode enc_msg m
  | Some e ->
      Xdr.reset e;
      enc_msg e m;
      Xdr.to_string e

let msg_of_string (s : string) : (msg, string) result =
  Xdr.run s (fun d ->
      let m = dec_msg d in
      m)

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
