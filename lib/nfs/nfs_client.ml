(* The read-write data path of both clients: NFS 3 procedures over a
   transport, as [Fs_intf.ops] plus an optional readahead pipeline.

   The kernel NFS client of the benchmark baselines frames each call as
   Sun RPC on a clear connection; the SFS client (paper section 3.3)
   carries the same NFS 3 calls inside its secure channel.  So the two
   differ only in their [transport]: how a call is framed and a reply
   opened.  Everything else is built once, here: the three muxes
   (serial, write-behind, readahead), the retry loop and the readahead
   pipeline.  Caching lives in the separate Cachefs layer. *)

open Nfs_types
module Simos = Sfs_os.Simos
module Simnet = Sfs_net.Simnet
module Rpc_mux = Sfs_net.Rpc_mux
module Costmodel = Sfs_net.Costmodel
module Simclock = Sfs_net.Simclock
module Xdr = Sfs_xdr.Xdr
module Sunrpc = Sfs_xdr.Sunrpc
module Obs = Sfs_obs.Obs
module Slice = Sfs_util.Slice

exception Rpc_failure of string
exception Poisoned of string

type backoff = { attempts : int; base_us : float; max_us : float }

(* The one retry loop: [Error why] is a transient failure, to back off
   from or give up on; a permanent one is the attempt's own exception. *)
let with_backoff ?obs ~(clock : Simclock.t) (b : backoff) (attempt : bool -> ('a, string) result) :
    'a =
  let rec go i =
    match attempt (i > 0) with
    | Ok v -> v
    | Error _ when i + 1 < b.attempts ->
        Obs.incr obs "recover.rpc_retry";
        Simclock.advance clock (Float.min (b.base_us *. float_of_int (1 lsl min i 16)) b.max_us);
        go (i + 1)
    | Error why ->
        Obs.incr obs "recover.rpc_giveup";
        raise (Rpc_failure why)
  in
  go 0

type call = Root | Proc of int
type 'a reply = ('a, [ `Retry of string | `Fail of string ]) result
type 'a opened = { results : 'a reply; crypto_us : float; claim_us : float }

type transport = {
  conn : unit -> Simnet.conn;
  proto : Costmodel.transport_proto;
  verbatim : bool;
  frame :
    xid:int ->
    ctx:Obs.ctx option ->
    cred:Simos.cred ->
    call ->
    (Xdr.enc -> unit) ->
    string * float;
  open_reply : 'a. readahead:bool -> (Slice.t -> 'a) -> request:string -> string -> 'a opened;
  op_us : float;
  precompute : (budget_us:float -> float) option;
  before_retry : unit -> unit;
  backoff : backoff;
}

let decode (results : string) (dec : Xdr.dec -> 'a) : 'a =
  match Xdr.run results dec with
  | Ok v -> v
  | Result.Error e -> raise (Rpc_failure ("unparsable result: " ^ e))

(* NFS 3 procedures marshaled over [call], which takes the arguments as
   a writer into the transport's own encoder and returns the marshaled
   results.  [async] marks write-behind traffic (unstable WRITEs). *)
let generic_ops (call : async:bool -> cred:Simos.cred -> call -> (Xdr.enc -> unit) -> string)
    ~(root : fh) : Fs_intf.ops =
  let open Nfs_proto in
  let nfs_call ?(async = false) ~cred ~proc enc_args a dec_result =
    decode (call ~async ~cred (Proc proc) (fun e -> enc_args e a)) dec_result
  in
  {
    Fs_intf.fs_root = root;
    fs_getattr = (fun cred h -> nfs_call ~cred ~proc:proc_getattr enc_fh h (dec_res dec_fattr));
    fs_setattr =
      (fun cred h s -> nfs_call ~cred ~proc:proc_setattr enc_setattr_args (h, s) (dec_res dec_fattr));
    fs_lookup =
      (fun cred ~dir name ->
        nfs_call ~cred ~proc:proc_lookup enc_diropargs (dir, name) (dec_res dec_lookup_ok));
    fs_access =
      (fun cred h want ->
        Result.map snd
          (nfs_call ~cred ~proc:proc_access enc_access_args (h, want) (dec_res dec_access_ok)));
    fs_readlink =
      (fun cred h ->
        nfs_call ~cred ~proc:proc_readlink enc_fh h (dec_res (fun d -> Xdr.dec_string d ~max:1024)));
    fs_read =
      (fun cred h ~off ~count ->
        nfs_call ~cred ~proc:proc_read enc_read_args (h, off, count) (dec_res dec_read_ok));
    fs_write =
      (fun cred h ~off ~stable data ->
        nfs_call ~async:(not stable) ~cred ~proc:proc_write enc_write_args (h, off, stable, data)
          (dec_res dec_fattr));
    fs_create =
      (fun cred ~dir name ~mode ->
        nfs_call ~cred ~proc:proc_create enc_create_args (dir, name, mode) (dec_res dec_lookup_ok));
    fs_mkdir =
      (fun cred ~dir name ~mode ->
        nfs_call ~cred ~proc:proc_mkdir enc_create_args (dir, name, mode) (dec_res dec_lookup_ok));
    fs_symlink =
      (fun cred ~dir name ~target ->
        nfs_call ~cred ~proc:proc_symlink enc_symlink_args (dir, name, target) (dec_res dec_lookup_ok));
    fs_remove =
      (fun cred ~dir name ->
        nfs_call ~cred ~proc:proc_remove enc_diropargs (dir, name) (dec_res dec_unit_ok));
    fs_rmdir =
      (fun cred ~dir name ->
        nfs_call ~cred ~proc:proc_rmdir enc_diropargs (dir, name) (dec_res dec_unit_ok));
    fs_rename =
      (fun cred ~from_dir ~from_name ~to_dir ~to_name ->
        nfs_call ~cred ~proc:proc_rename enc_rename_args (from_dir, from_name, to_dir, to_name)
          (dec_res dec_unit_ok));
    fs_link =
      (fun cred ~target ~dir name ->
        nfs_call ~cred ~proc:proc_link enc_link_args (target, dir, name) (dec_res dec_fattr));
    fs_readdir =
      (fun cred h -> nfs_call ~cred ~proc:proc_readdirplus enc_fh h (dec_res dec_readdir_ok));
    fs_commit =
      (fun cred h -> nfs_call ~cred ~proc:proc_commit enc_read_args (h, 0, 0) (dec_res dec_unit_ok));
    fs_fsstat = (fun cred h -> nfs_call ~cred ~proc:proc_fsstat enc_fh h (dec_res dec_fsstat_ok));
  }

(* The builder.  Each mux hands the transport its decoder, which runs
   on the opened results while the transport still lends them.  Serial
   and write-behind calls copy the marshaled results out and decode
   them afterwards; readahead decodes its READ result in place, which
   copies the data once, into the string the block cache keeps and a
   reader gets.

   Serial calls ride a window-1 mux, which prices exactly one round
   trip.  Write-behind rides a second one, whose latency is
   [async_floor_us]: the part of the round trip a write-behind caller
   still waits for.  Neither keeps a registry, so the mux.* counters
   describe readahead alone.  Readahead rides a windowed mux, built
   after the root fetch so its idle-wire harvest starts at the mount.
   A readahead fault raises out of the await thunk and the cache falls
   back to the serial path, whose retry loop recovers; READs are
   idempotent, so the abandoned xid is harmless. *)
let data_path ?obs ~(window : int) ~(readahead : int) ~(cred : Simos.cred) (net : Simnet.t)
    (tr : transport) : Fs_intf.ops * Fs_intf.pipeline option =
  let clock = Simnet.clock net in
  let mux ?obs ?precompute ~readahead ~window ~latency_us ~op_us decode =
    let open_reply = tr.open_reply ~readahead decode in
    Rpc_mux.create ?obs ?precompute ~window ~clock ~wire_us:(Costmodel.transfer_us tr.proto)
      ~latency_us ~op_us
      ~exchange:(fun request ->
        let reply, server_us = Simnet.call_measured (tr.conn ()) request in
        let o = open_reply ~request reply in
        {
          Rpc_mux.c_payload = o.results;
          c_server_us = server_us;
          c_wire_bytes = String.length reply;
          c_crypto_us = o.crypto_us;
          c_claim_us = o.claim_us;
        })
      ()
  in
  let round_trip = Costmodel.rpc_fixed_us tr.proto in
  let serial = mux ~readahead:false ~window:1 ~latency_us:round_trip ~op_us:0.0 Slice.to_string in
  let write_behind =
    mux ~readahead:false ~window:1 ~latency_us:Costmodel.async_floor_us ~op_us:0.0 Slice.to_string
  in
  (* Frame one call under a fresh op span and submit it: the mux
     records the op's critical-path sample and closes the span at the
     op's ready time. *)
  let submit_op mux ~op ~xid ~cred call args =
    (* sfslint: allow SL012 — the open span is handed to Rpc_mux.submit via ~info, which closes it at the op's ready time (or at submit time on a failed exchange) *)
    let os = Obs.span_begin obs ~cat:"op" op in
    let t0 = Simclock.now_us clock in
    let wire, crypto_up = tr.frame ~xid ~ctx:(Obs.open_ctx os) ~cred call args in
    let info = { Rpc_mux.ci_op = op; ci_t0_us = t0; ci_crypto_up_us = crypto_up; ci_span = os } in
    Rpc_mux.submit ~info mux ~wire_bytes:(String.length wire) wire
  in
  (* One logical call: one xid, held across every attempt, so the
     server's duplicate request cache recognises a retransmission whose
     first execution succeeded but whose reply was lost. *)
  let rpc ~async ~cred call args =
    let xid = Simnet.next_xid (tr.conn ()) in
    let mux = if async then write_behind else serial in
    let verbatim =
      if tr.verbatim then Some (fst (tr.frame ~xid ~ctx:(Obs.current obs) ~cred call args)) else None
    in
    let submit () =
      match verbatim with
      | Some wire -> Rpc_mux.submit mux ~wire_bytes:(String.length wire) wire
      | None ->
          let name = match call with Root -> "getroot" | Proc p -> Nfs_proto.proc_name p in
          submit_op mux ~op:(if async then name ^ "/wb" else name) ~xid ~cred call args
    in
    with_backoff ?obs ~clock tr.backoff (fun again ->
        if again then tr.before_retry ();
        match Rpc_mux.await mux (submit ()) with
        | Ok results -> Ok results
        | Error (`Retry why) -> Error why
        | Error (`Fail why) -> raise (Rpc_failure why)
        | exception Simnet.Timeout -> Error "timeout"
        | exception Poisoned why -> Error why)
  in
  let root = decode (rpc ~async:false ~cred Root ignore) dec_fh in
  let pipeline =
    if window > 1 && readahead > 0 then begin
      (* An undecodable result is kept as a value and raised by the
         await thunk, like a damaged reply: the exchange itself
         succeeded and its timelines stand. *)
      let dec_read = Nfs_proto.dec_res Nfs_proto.dec_read_ok in
      let mux =
        mux ?obs ?precompute:tr.precompute ~readahead:true ~window ~latency_us:round_trip
          ~op_us:tr.op_us (fun results -> Xdr.run_slice results dec_read)
      in
      let pl_submit cred h ~off ~count =
        let ticket =
          submit_op mux ~op:"read" ~xid:(Simnet.next_xid (tr.conn ())) ~cred
            (Proc Nfs_proto.proc_read) (fun e -> Nfs_proto.enc_read_args e (h, off, count))
        in
        fun () ->
          match Rpc_mux.await mux ticket with
          | Ok (Ok read) -> read
          | Ok (Result.Error e) -> raise (Rpc_failure ("unparsable result: " ^ e))
          | Error (`Retry why | `Fail why) -> raise (Rpc_failure ("pipelined read: " ^ why))
      in
      Some { Fs_intf.pl_depth = readahead; pl_submit }
    end
    else None
  in
  (generic_ops rpc ~root, pipeline)

(* --- NFS 3 over Sun RPC --- *)

(* The kernel NFS client's retransmission budget. *)
let nfs_backoff = { attempts = 8; base_us = 20_000.; max_us = 800_000. }

let rpc_auth_of_cred (machine : string) (c : Simos.cred) : Sunrpc.auth_flavor =
  if Simos.is_anonymous c then Sunrpc.Auth_none
  else
    Sunrpc.Auth_unix
      { stamp = 0; machine; uid = c.Simos.cred_uid; gid = c.Simos.cred_gid; gids = c.Simos.cred_groups }

(* The results a reply to [xid] carries, or why it carries none:
   [`Retry] when the bytes on the wire were damaged (retransmitting
   may help), [`Fail] for an RPC-level rejection (it will not). *)
let reply_results ~(xid : int) (reply : string) : Slice.t reply =
  match Sunrpc.msg_of_string reply with
  | Ok (Sunrpc.Reply r) when r.Sunrpc.reply_xid = xid || r.Sunrpc.reply_xid = 0 -> (
      match r.Sunrpc.body with
      | Sunrpc.Success results -> Ok results
      | Sunrpc.Garbage_args ->
          (* Our request arrived corrupted; the bytes on the wire were
             damaged, not the program. *)
          Error (`Retry "garbage args")
      | Sunrpc.Prog_unavail -> Error (`Fail "program unavailable")
      | Sunrpc.Prog_mismatch _ -> Error (`Fail "program version mismatch")
      | Sunrpc.Proc_unavail -> Error (`Fail "procedure unavailable")
      | Sunrpc.System_err -> Error (`Fail "system error")
      | Sunrpc.Rejected _ -> Error (`Fail "call rejected"))
  | Ok (Sunrpc.Reply _) -> Error (`Retry "xid mismatch")
  | Ok (Sunrpc.Call _) -> Error (`Fail "unexpected call")
  | Result.Error e -> Error (`Retry ("unparsable reply: " ^ e))

(* Sun RPC on a clear connection.  A call is framed once, from the
   ambient causal context (the enclosing Cachefs op root), and every
   retransmission resends those bytes under the same xid: the server's
   duplicate request cache compares whole messages.  A damaged reply
   still took its round trip; it is retried after it, and an RPC-level
   rejection is never retried.  [stall] models FreeBSD's suboptimal
   kernel NFS over TCP (paper section 4.1): a request spanning several
   TCP segments hits delayed-ACK/Nagle stalls, the pathology behind NFS
   3 (TCP)'s poor showing on write-heavy workloads. *)
let sunrpc (net : Simnet.t) ~(proto : Costmodel.transport_proto) ~(machine : string)
    (conn : Simnet.conn) : transport =
  let clock = Simnet.clock net in
  let enc = Xdr.make_enc () in
  let stall =
    match proto with
    | Costmodel.Udp -> fun _ -> ()
    | Costmodel.Tcp ->
        fun bytes -> if bytes > Costmodel.mss_bytes then Simclock.advance clock Costmodel.nfs_tcp_stall_us
  in
  let frame ~xid ~ctx ~cred call write_args =
    let prog, vers, proc =
      match call with
      | Root -> (Nfs_proto.mount_prog, Nfs_proto.mount_vers, Nfs_proto.mount_proc_mnt)
      | Proc p -> (Nfs_proto.prog, Nfs_proto.vers, p)
    in
    (* The trace annex: server-side spans attach to the op that caused
       them. *)
    let trace, span = match ctx with Some cx -> (cx.Obs.cx_trace, cx.Obs.cx_span) | None -> (0, 0) in
    Xdr.reset enc;
    Sunrpc.enc_call_header enc ~xid ~prog ~vers ~proc ~trace ~span (rpc_auth_of_cred machine cred);
    let header = Xdr.length enc in
    write_args enc;
    stall (Xdr.length enc - header);
    (Xdr.to_string enc, 0.0)
  in
  {
    conn = (fun () -> conn);
    proto;
    verbatim = true;
    frame;
    (* A Sun RPC message opens with its xid. *)
    open_reply =
      (fun ~readahead:_ decode ~request reply ->
        {
          results =
            Result.map decode (reply_results ~xid:(Sfs_util.Bytesutil.int_of_be32 request ~off:0) reply);
          crypto_us = 0.0;
          claim_us = 0.0;
        });
    op_us = Costmodel.pipeline_nfs_op_us;
    precompute = None;
    before_retry = ignore;
    backoff = nfs_backoff;
  }

(* Dial an NFS server over the simulated network and mount its export;
   [window]/[readahead] > trivial also build the pipelined read path
   for the caching layer.  Any failure closes the connection. *)
let mount ?obs ?(window = 1) ?(readahead = 0) (net : Simnet.t) ~(from_host : string)
    ~(addr : string) ~(proto : Costmodel.transport_proto) ~(cred : Simos.cred) :
    Fs_intf.ops * Fs_intf.pipeline option =
  let conn = Simnet.connect net ~from_host ~addr ~port:2049 ~proto in
  match
    data_path ?obs ~window ~readahead ~cred net (sunrpc net ~proto ~machine:from_host conn)
  with
  | mounted -> mounted
  | exception e ->
      Simnet.close conn;
      raise e
