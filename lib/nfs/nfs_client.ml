(* NFS 3 client: [Fs_intf.ops] over a Sun RPC connection.

   This is the kernel NFS client of the benchmark baselines, and also
   what an SFS server uses to reach the NFS server on its own machine
   (in-machine traffic uses a zero-cost loopback connection).  Caching
   lives in the separate Cachefs layer, so this module is a pure
   protocol translator. *)

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

type transport = string -> string
(** Sends one marshaled RPC call, returns the marshaled reply. *)

exception Rpc_failure of string

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

(* The kernel NFS client's retransmission budget. *)
let nfs_backoff = { attempts = 8; base_us = 20_000.; max_us = 800_000. }

(* [enc] is the connection's reusable RPC encoder: one buffer serves
   every call this client makes. *)
type t = {
  send : transport;
  mutable xid : int;
  machine : string;
  enc : Xdr.enc;
  clock : Simclock.t; (* billed for retransmission backoff *)
  obs : Obs.registry option; (* for the trace-context annex on calls *)
}

let rpc_auth_of_cred (machine : string) (c : Simos.cred) : Sunrpc.auth_flavor =
  if Simos.is_anonymous c then Sunrpc.Auth_none
  else
    Sunrpc.Auth_unix
      { stamp = 0; machine; uid = c.Simos.cred_uid; gid = c.Simos.cred_gid; gids = c.Simos.cred_groups }

let create ?obs ~(clock : Simclock.t) ~(machine : string) (send : transport) : t =
  { send; xid = 1; machine; enc = Xdr.make_enc (); clock; obs }

let next_xid (t : t) : int =
  let xid = t.xid in
  t.xid <- xid + 1;
  xid

(* One marshaled Sun RPC call.  [ctx] is the causal context for the
   trace annex, so server-side spans attach to the op that caused
   them. *)
let call_msg ~(enc : Xdr.enc) ~(machine : string) ~(xid : int) ~(ctx : Obs.ctx option)
    ~(cred : Simos.cred) ~(prog : int) ~(vers : int) ~(proc : int) (args : string) : string =
  let trace, span = match ctx with Some cx -> (cx.Obs.cx_trace, cx.Obs.cx_span) | None -> (0, 0) in
  Sunrpc.msg_to_string ~enc
    (Sunrpc.Call
       { Sunrpc.xid; prog; vers; proc; trace; span; cred = rpc_auth_of_cred machine cred; args })

(* The results a reply to [xid] carries, or why it carries none:
   [`Retry] when the bytes on the wire were damaged (retransmitting
   may help), [`Fail] for an RPC-level rejection (it will not). *)
let reply_results ~(xid : int) (reply : string) :
    (string, [ `Retry of string | `Fail of string ]) result =
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

(* One call: marshal, send, unmarshal, check xid.  Timeouts and
   garbled replies retransmit the message verbatim under the same xid,
   keeping the byte-comparing duplicate request cache effective;
   RPC-level rejections are hard errors and never retried. *)
let call_raw (t : t) ~(cred : Simos.cred) ~(prog : int) ~(vers : int) ~(proc : int) (args : string) :
    string =
  let xid = next_xid t in
  (* The ambient causal context: the enclosing Cachefs op root. *)
  let msg =
    call_msg ~enc:t.enc ~machine:t.machine ~xid ~ctx:(Obs.current t.obs) ~cred ~prog ~vers ~proc args
  in
  with_backoff ?obs:t.obs ~clock:t.clock nfs_backoff (fun _again ->
      match t.send msg with
      | exception Simnet.Timeout -> Error "timeout"
      | reply -> (
          match reply_results ~xid reply with
          | Ok results -> Ok results
          | Error (`Retry why) -> Error why
          | Error (`Fail why) -> raise (Rpc_failure why)))

(* NFS procedures marshaled over any raw call function; shared with the
   SFS client, whose transport is the secure channel instead of Sun
   RPC. *)
type raw_call = cred:Simos.cred -> proc:int -> async:bool -> string -> Slice.t
(* [async] marks write-behind traffic (unstable WRITEs): the transport
   may pipeline it instead of paying a full round trip.  The results
   come back as a view: into the opened frame on the secure channel, a
   whole-string wrapper here. *)

let generic_call ?(async = false) (call : raw_call) ~(cred : Simos.cred) ~(proc : int)
    (enc_args : Xdr.enc -> 'a -> unit) (a : 'a) (dec_result : Xdr.dec -> 'b) : 'b =
  let args = Xdr.encode enc_args a in
  match Xdr.run_slice (call ~cred ~proc ~async args) dec_result with
  | Ok v -> v
  | Result.Error e ->
      (* sfstaint: allow TNT004 — Xdr errors interpolate only lengths and tag values, never reply bytes; the transport closure's captured channel state stays out of the message *)
      raise (Rpc_failure ("unparsable result: " ^ e))

(* Fetch the root handle via the MOUNT program. *)
let mount_root (t : t) ~(cred : Simos.cred) : fh =
  let results =
    call_raw t ~cred ~prog:Nfs_proto.mount_prog ~vers:Nfs_proto.mount_vers
      ~proc:Nfs_proto.mount_proc_mnt ""
  in
  match Xdr.run results dec_fh with
  | Ok h -> h
  | Result.Error e -> raise (Rpc_failure ("bad mount reply: " ^ e))

let generic_ops (call : raw_call) ~(root : fh) : Fs_intf.ops =
  let open Nfs_proto in
  let nfs_call ?async ~cred ~proc enc_args a dec_result =
    generic_call ?async call ~cred ~proc enc_args a dec_result
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

(* Ops over a network connection.  Serial calls ride a window-1 mux,
   which prices exactly one round trip.  Async traffic (unstable
   WRITEs) rides a second one, whose latency is [async_floor_us]: the
   part of the round trip a write-behind caller still waits for.
   Neither keeps a registry or takes critical-path samples, so the
   mux.* counters describe readahead alone.  [stall] models FreeBSD's
   suboptimal kernel NFS-over-TCP (paper section 4.1): requests
   spanning multiple TCP segments hit delayed-ACK/Nagle stalls — the
   pathology behind NFS 3 (TCP)'s poor showing on write-heavy
   workloads. *)
let conn_ops ~(stall : int -> unit) ?obs (net : Simnet.t) ~(proto : Costmodel.transport_proto)
    ~(machine : string) (conn : Simnet.conn) ~(root : fh) : Fs_intf.ops =
  let client latency_us =
    create ?obs ~clock:(Simnet.clock net) ~machine
      (Rpc_mux.call (Rpc_mux.of_conn ~latency_us net ~proto conn))
  in
  let sync = client (Costmodel.rpc_fixed_us proto) in
  let async_t = { (client Costmodel.async_floor_us) with xid = 100_000_000 } in
  generic_ops
    (fun ~cred ~proc ~async args ->
      stall (String.length args);
      let t = if async then async_t else sync in
      Slice.of_string (call_raw t ~cred ~prog:Nfs_proto.prog ~vers:Nfs_proto.vers ~proc args))
    ~root

(* The windowed READ path (readahead): its own xid space, so pipelined
   traffic can never collide with the sync (base 1) or async (base 1e8)
   clients, and its own Rpc_mux.  No retransmission here — a fault
   raises out of the await thunk, and the caller (Cachefs) falls back
   to the synchronous path, whose retry machinery recovers; READs are
   idempotent, so the abandoned xid is harmless. *)
let conn_pipeline ?obs ~(window : int) ~(depth : int) (net : Simnet.t)
    ~(proto : Costmodel.transport_proto) ~(machine : string) (conn : Simnet.conn) :
    Fs_intf.pipeline =
  let mux =
    Rpc_mux.of_conn ?obs ~window ~op_us:Costmodel.pipeline_nfs_op_us net ~proto conn
  in
  let enc = Xdr.make_enc () in
  let next_xid = ref 200_000_000 in
  let pl_submit cred h ~off ~count =
    let xid = !next_xid in
    incr next_xid;
    let t0 = Simclock.now_us (Simnet.clock net) in
    (* sfslint: allow SL012 — the open span is handed to Rpc_mux.submit via ~info, which closes it at the op's ready time (or at submit time on a failed exchange) *)
    let os = Obs.span_begin obs ~cat:"op" "read" in
    let msg =
      call_msg ~enc ~machine ~xid ~ctx:(Obs.open_ctx os) ~cred ~prog:Nfs_proto.prog
        ~vers:Nfs_proto.vers ~proc:Nfs_proto.proc_read
        (Xdr.encode Nfs_proto.enc_read_args (h, off, count))
    in
    let info =
      {
        Rpc_mux.ci_op = "read";
        ci_t0_us = t0;
        ci_crypto_up_us = 0.0;
        ci_crypto_up_ctr = 0;
        ci_span = os;
      }
    in
    let ticket = Rpc_mux.submit ~info mux ~wire_bytes:(String.length msg) msg in
    fun () ->
      match reply_results ~xid (Rpc_mux.await mux ticket) with
      | Ok results -> (
          (* Slice decode: the block cache keeps a view into [results]
             instead of a copied-out string. *)
          match Xdr.run results (Nfs_proto.dec_res Nfs_proto.dec_read_ok_slice) with
          | Ok v -> v
          | Result.Error e -> raise (Rpc_failure ("unparsable result: " ^ e)))
      | Error (`Retry why | `Fail why) -> raise (Rpc_failure ("pipelined read: " ^ why))
  in
  { Fs_intf.pl_depth = depth; pl_submit }

(* Convenience: dial an NFS server over the simulated network and mount
   its export; [window]/[readahead] > trivial also build the pipelined
   read path for the caching layer. *)
let mount_pipelined ?obs ?(window = 1) ?(readahead = 0) (net : Simnet.t) ~(from_host : string)
    ~(addr : string) ~(proto : Costmodel.transport_proto) ~(cred : Simos.cred) :
    Fs_intf.ops * Fs_intf.pipeline option =
  let conn = Simnet.connect net ~from_host ~addr ~port:2049 ~proto in
  let root =
    mount_root
      (create ?obs ~clock:(Simnet.clock net) ~machine:from_host
         (Rpc_mux.call (Rpc_mux.of_conn net ~proto conn)))
      ~cred
  in
  let stall =
    match proto with
    | Costmodel.Udp -> fun _ -> ()
    | Costmodel.Tcp ->
        fun bytes ->
          if bytes > Costmodel.mss_bytes then
            Simclock.advance (Simnet.clock net) Costmodel.nfs_tcp_stall_us
  in
  let pipeline =
    if window > 1 && readahead > 0 then
      Some (conn_pipeline ?obs ~window ~depth:readahead net ~proto ~machine:from_host conn)
    else None
  in
  (conn_ops ~stall ?obs net ~proto ~machine:from_host conn ~root, pipeline)

let mount (net : Simnet.t) ~(from_host : string) ~(addr : string)
    ~(proto : Costmodel.transport_proto) ~(cred : Simos.cred) : Fs_intf.ops =
  fst (mount_pipelined net ~from_host ~addr ~proto ~cred)
