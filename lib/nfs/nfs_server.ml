(* The NFS 3 server engine.

   Serves any [Fs_intf.ops] backend over Sun RPC.  This plays the role
   of the kernel NFS server that every SFS server fronts (paper
   section 3), and — mounted directly over the simulated network — the
   insecure NFS 3 baseline of the evaluation.

   Faithful to NFS 3's weaknesses by design: credentials are taken
   from AUTH_UNIX at face value, and file handles are transparent
   (guessable).  The attack-demo example exploits both; SFS closes
   them with authserv-validated credentials and encrypted handles. *)

open Nfs_types
module Simos = Sfs_os.Simos
module Simnet = Sfs_net.Simnet
module Xdr = Sfs_xdr.Xdr
module Sunrpc = Sfs_xdr.Sunrpc

module Obs = Sfs_obs.Obs

type t = {
  backend : Fs_intf.ops;
  fh_prefix : string; (* distinguishes wire handles from backend ones *)
  mutable calls : int;
  obs : Obs.registry option;
  op_keys : string array; (* "nfs.op.<name>" by procedure number, when observed *)
  enc : Xdr.enc; (* reusable reply encoder (RPC envelope) *)
  res_enc : Xdr.enc; (* reusable results encoder for [dispatch] *)
}

(* Procedures 0 .. [max_proc] get their counter name built once here,
   not per call. *)
let max_proc = 21

let op_key (proc : int) : string = "nfs.op." ^ Nfs_proto.proc_name proc

let create ?(fh_prefix = "nfs3:") ?obs (backend : Fs_intf.ops) : t =
  {
    backend;
    fh_prefix;
    calls = 0;
    obs;
    op_keys = (if obs = None then [||] else Array.init (max_proc + 1) op_key);
    enc = Xdr.make_enc ();
    res_enc = Xdr.make_enc ();
  }

(* Wire handles just prefix the backend handle: deliberately guessable,
   like the weak handles the paper warns about (section 3.3). *)
let export_fh (t : t) (h : fh) : fh = t.fh_prefix ^ h

let import_fh (t : t) (h : fh) : fh res =
  let n = String.length t.fh_prefix in
  if String.length h >= n && String.sub h 0 n = t.fh_prefix then
    Ok (String.sub h n (String.length h - n))
  else Error NFS3ERR_BADHANDLE

let root_fh (t : t) : fh = export_fh t t.backend.Fs_intf.fs_root

let cred_of_rpc (c : Sunrpc.auth_flavor) : Simos.cred =
  match c with
  | Sunrpc.Auth_none -> Simos.anonymous_cred
  | Sunrpc.Auth_unix { uid; gid; gids; _ } ->
      { Simos.cred_uid = uid; cred_gid = gid; cred_groups = gids }

let ( let* ) = Result.bind

(* Rewrites backend handles to wire handles inside results. *)
let export_lookup (t : t) (r : (fh * fattr) res) : (fh * fattr) res =
  Result.map (fun (h, a) -> (export_fh t h, a)) r

let export_dirents (t : t) (r : dirent list res) : dirent list res =
  Result.map (List.map (fun de -> { de with d_fh = export_fh t de.d_fh })) r

(* Runs one procedure and marshals its results onto [e]; [false] (with
   nothing written) = unparsable args or unknown procedure. *)
let dispatch_body (t : t) (cred : Simos.cred) (proc : int) (args : string) (e : Xdr.enc) : bool =
  let b = t.backend in
  let run dec_args enc_result f =
    match Xdr.run args dec_args with
    | Result.Error _ -> false
    | Ok a ->
        enc_result e (f a);
        true
  in
  let open Nfs_proto in
  if proc = proc_null then true
  else if proc = proc_getattr then
    run dec_fh (enc_res enc_fattr) (fun h ->
        let* h = import_fh t h in
        b.Fs_intf.fs_getattr cred h)
  else if proc = proc_setattr then
    run dec_setattr_args (enc_res enc_fattr) (fun (h, s) ->
        let* h = import_fh t h in
        b.Fs_intf.fs_setattr cred h s)
  else if proc = proc_lookup then
    run dec_diropargs (enc_res enc_lookup_ok) (fun (dir, name) ->
        let* dir = import_fh t dir in
        export_lookup t (b.Fs_intf.fs_lookup cred ~dir name))
  else if proc = proc_access then
    run dec_access_args (enc_res enc_access_ok) (fun (h, want) ->
        let* h = import_fh t h in
        let* granted = b.Fs_intf.fs_access cred h want in
        let* a = b.Fs_intf.fs_getattr cred h in
        Ok (a, granted))
  else if proc = proc_readlink then
    run dec_fh (enc_res (fun e s -> Xdr.enc_string e s)) (fun h ->
        let* h = import_fh t h in
        b.Fs_intf.fs_readlink cred h)
  else if proc = proc_read then
    run dec_read_args (enc_res enc_read_ok) (fun (h, off, count) ->
        let* h = import_fh t h in
        b.Fs_intf.fs_read cred h ~off ~count)
  else if proc = proc_write then
    run dec_write_args (enc_res enc_fattr) (fun (h, off, stable, data) ->
        let* h = import_fh t h in
        b.Fs_intf.fs_write cred h ~off ~stable data)
  else if proc = proc_create then
    run dec_create_args (enc_res enc_lookup_ok) (fun (dir, name, mode) ->
        let* dir = import_fh t dir in
        export_lookup t (b.Fs_intf.fs_create cred ~dir name ~mode))
  else if proc = proc_mkdir then
    run dec_create_args (enc_res enc_lookup_ok) (fun (dir, name, mode) ->
        let* dir = import_fh t dir in
        export_lookup t (b.Fs_intf.fs_mkdir cred ~dir name ~mode))
  else if proc = proc_symlink then
    run dec_symlink_args (enc_res enc_lookup_ok) (fun (dir, name, target) ->
        let* dir = import_fh t dir in
        export_lookup t (b.Fs_intf.fs_symlink cred ~dir name ~target))
  else if proc = proc_remove then
    run dec_diropargs (enc_res enc_unit_ok) (fun (dir, name) ->
        let* dir = import_fh t dir in
        b.Fs_intf.fs_remove cred ~dir name)
  else if proc = proc_rmdir then
    run dec_diropargs (enc_res enc_unit_ok) (fun (dir, name) ->
        let* dir = import_fh t dir in
        b.Fs_intf.fs_rmdir cred ~dir name)
  else if proc = proc_rename then
    run dec_rename_args (enc_res enc_unit_ok) (fun (fd, fn, td, tn) ->
        let* fd = import_fh t fd in
        let* td = import_fh t td in
        b.Fs_intf.fs_rename cred ~from_dir:fd ~from_name:fn ~to_dir:td ~to_name:tn)
  else if proc = proc_link then
    run dec_link_args (enc_res enc_fattr) (fun (target, dir, name) ->
        let* target = import_fh t target in
        let* dir = import_fh t dir in
        b.Fs_intf.fs_link cred ~target ~dir name)
  else if proc = proc_readdirplus then
    run dec_fh (enc_res enc_readdir_ok) (fun h ->
        let* h = import_fh t h in
        export_dirents t (b.Fs_intf.fs_readdir cred h))
  else if proc = proc_fsstat then
    run dec_fh (enc_res enc_fsstat_ok) (fun h ->
        let* h = import_fh t h in
        b.Fs_intf.fs_fsstat cred h)
  else if proc = proc_commit then
    run dec_read_args (enc_res enc_unit_ok) (fun (h, _off, _count) ->
        let* h = import_fh t h in
        b.Fs_intf.fs_commit cred h)
  else false

(* The counting/span wrapper sits here (not in [handle_message]) so the
   SFS server path — which calls [dispatch_into] directly with its own
   credential mapping — is observed too. *)
let dispatch_into (t : t) (cred : Simos.cred) (proc : int) (args : string) (e : Xdr.enc) : bool =
  match t.obs with
  | None -> dispatch_body t cred proc args e
  | Some _ as obs ->
      let name = Nfs_proto.proc_name proc in
      Obs.incr obs "nfs.calls";
      Obs.incr obs (if proc >= 0 && proc <= max_proc then t.op_keys.(proc) else op_key proc);
      Obs.span obs ~cat:"nfs" name (fun () -> dispatch_body t cred proc args e)

let dispatch (t : t) (cred : Simos.cred) (proc : int) (args : string) : string option =
  Xdr.reset t.res_enc;
  if dispatch_into t cred proc args t.res_enc then Some (Xdr.to_string t.res_enc) else None

let dispatchable (proc : int) : bool =
  let open Nfs_proto in
  List.mem proc
    [
      proc_null; proc_getattr; proc_setattr; proc_lookup; proc_access; proc_readlink; proc_read;
      proc_write; proc_create; proc_mkdir; proc_symlink; proc_remove; proc_rmdir; proc_rename;
      proc_link; proc_readdirplus; proc_fsstat; proc_commit;
    ]

(* Handle one marshaled Sun RPC call; always returns a marshaled reply. *)
let handle_message (t : t) (bytes : string) : string =
  t.calls <- t.calls + 1;
  match Sunrpc.msg_of_string bytes with
  | Result.Error _ | Ok (Sunrpc.Reply _) ->
      (* Not a parsable call: RPC garbage. *)
      Sunrpc.msg_to_string ~enc:t.enc
        (Sunrpc.Reply { Sunrpc.reply_xid = 0; body = Sunrpc.Garbage_args })
  | Ok (Sunrpc.Call c) ->
      (* Adopt the caller's trace context (if any) so the dispatch span
         and counters attach to the causing client op. *)
      let ctx =
        if c.Sunrpc.trace > 0 then
          Some { Obs.cx_trace = c.Sunrpc.trace; cx_span = c.Sunrpc.span }
        else None
      in
      Obs.with_ctx t.obs ctx @@ fun () ->
      let body =
        if c.Sunrpc.prog = Nfs_proto.mount_prog then
          if c.Sunrpc.vers <> Nfs_proto.mount_vers then
            Sunrpc.Prog_mismatch (Nfs_proto.mount_vers, Nfs_proto.mount_vers)
          else if c.Sunrpc.proc = Nfs_proto.mount_proc_mnt then
            Sunrpc.Success (Xdr.encode enc_fh (root_fh t))
          else Sunrpc.Proc_unavail
        else if c.Sunrpc.prog <> Nfs_proto.prog then Sunrpc.Prog_unavail
        else if c.Sunrpc.vers <> Nfs_proto.vers then
          Sunrpc.Prog_mismatch (Nfs_proto.vers, Nfs_proto.vers)
        else
          match dispatch t (cred_of_rpc c.Sunrpc.cred) c.Sunrpc.proc c.Sunrpc.args with
          | Some results -> Sunrpc.Success results
          | None ->
              if dispatchable c.Sunrpc.proc then Sunrpc.Garbage_args else Sunrpc.Proc_unavail
      in
      Sunrpc.msg_to_string ~enc:t.enc (Sunrpc.Reply { Sunrpc.reply_xid = c.Sunrpc.xid; body })

(* Expose as a network service, with a per-connection duplicate request
   cache (bounded, FIFO eviction).  A retransmitted xid replays the
   stored reply instead of re-executing the procedure — the standard
   NFS defense that makes the client's retry-on-timeout discipline safe
   for non-idempotent procedures (CREATE, REMOVE, RENAME...). *)
let dup_cache_size = 128

let service (t : t) : Simnet.service =
 fun ~peer:_ ->
  (* xid -> (request bytes, reply).  A hit requires the stored request
     to match byte-for-byte: only a true retransmission replays, never
     a distinct call that happens to reuse an xid (clients sharing a
     connection each number from their own xid space). *)
  let cache : (int, string * string) Hashtbl.t = Hashtbl.create 64 in
  let order : int Queue.t = Queue.create () in
  fun bytes ->
    match Sunrpc.msg_of_string bytes with
    | Ok (Sunrpc.Call c) -> (
        let xid = c.Sunrpc.xid in
        match Hashtbl.find_opt cache xid with
        | Some (req, reply) when String.equal req bytes ->
            Obs.incr t.obs "recover.retransmit_hit";
            reply
        | previous ->
            let reply = handle_message t bytes in
            Hashtbl.replace cache xid (bytes, reply);
            if previous = None then begin
              Obs.incr t.obs "nfs.drc_insert";
              Queue.push xid order;
              if Queue.length order > dup_cache_size then begin
                Obs.incr t.obs "nfs.drc_evict";
                Hashtbl.remove cache (Queue.pop order)
              end
            end;
            reply)
    | Result.Error _ | Ok (Sunrpc.Reply _) ->
        (* Garbage never enters the cache; handle_message answers it. *)
        handle_message t bytes

let calls (t : t) : int = t.calls
