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

type handles = {
  export : fh -> fh;
  import : fh -> fh option;
  attr : fh -> fattr -> fattr;
  grant : fh -> unit;
  changed : fh -> unit;
}

type t = {
  backend : Fs_intf.ops;
  handles : handles;
  obs : Obs.registry option;
}

(* Procedures 0 .. 21 get their counter name built once, not per call. *)
let op_key (proc : int) : string = "nfs.op." ^ Nfs_proto.proc_name proc
let op_keys = Array.init 22 op_key (* sfslint: allow SL005 — constant counter names, never written *)

(* NFS 3 wire handles just prefix the backend handle: deliberately
   guessable, like the weak handles the paper warns about (section
   3.3).  They carry no leases. *)
let nfs3_prefix = "nfs3:"

(* Whether [h] carries the prefix from byte [i] on, compared in place
   ([String.starts_with] allocates a closure per call without flambda). *)
let rec nfs3_prefixed (h : fh) (i : int) : bool =
  i = String.length nfs3_prefix
  || (i < String.length h && Char.equal h.[i] nfs3_prefix.[i] && nfs3_prefixed h (i + 1))

let nfs3_handles : handles =
  let n = String.length nfs3_prefix in
  let import h = if nfs3_prefixed h 0 then Some (String.sub h n (String.length h - n)) else None in
  { export = (fun h -> nfs3_prefix ^ h); import; attr = (fun _ a -> a); grant = ignore; changed = ignore }

let create ?(handles = nfs3_handles) ?obs (backend : Fs_intf.ops) : t =
  { backend; handles; obs }

(* A wire handle this server never issued: NFS3ERR_BADHANDLE. *)
exception Bad_handle

let import_fh (t : t) (h : fh) : fh =
  match t.handles.import h with Some inner -> inner | None -> raise Bad_handle

let cred_of_rpc (c : Sunrpc.auth_flavor) : Simos.cred =
  match c with
  | Sunrpc.Auth_none -> Simos.anonymous_cred
  | Sunrpc.Auth_unix { uid; gid; gids; _ } ->
      { Simos.cred_uid = uid; cred_gid = gid; cred_groups = gids }

let ( let* ) = Result.bind

(* What a reply owes the handles it serves, met only when the backend
   call succeeded.  Every [fh] here is a wire handle. *)
let served_attr (t : t) (h : fh) (r : fattr res) : fattr res =
  match r with Ok a -> Ok (t.handles.attr h a) | Error _ as err -> err

let changed (t : t) (h : fh) (r : 'a res) : 'a res =
  (match r with Ok _ -> t.handles.changed h | Error _ -> ());
  r

let export_lookup (t : t) (r : (fh * fattr) res) : (fh * fattr) res =
  match r with
  | Ok (h, a) ->
      let wh = t.handles.export h in
      Ok (wh, t.handles.attr wh a)
  | Error _ as err -> err

let export_dirent (t : t) (de : dirent) : dirent =
  let wh = t.handles.export de.d_fh in
  { de with d_fh = wh; d_attr = t.handles.attr wh de.d_attr }

type outcome = Done | Bad_args | No_proc

(* Runs one procedure and marshals its results onto [e]; nothing is
   written unless it is [Done].  Each handle is imported once. *)
let dispatch_body (t : t) (cred : Simos.cred) (proc : int) (args : string) (e : Xdr.enc) : outcome =
  let b = t.backend in
  let run dec_args enc_result f =
    match Xdr.run args dec_args with
    | Result.Error _ -> Bad_args
    | Ok a ->
        enc_result e (try f a with Bad_handle -> Error NFS3ERR_BADHANDLE);
        Done
  in
  let open Nfs_proto in
  if proc = proc_null then Done
  else if proc = proc_getattr then
    run dec_fh (enc_res enc_fattr) (fun h ->
        served_attr t h (b.Fs_intf.fs_getattr cred (import_fh t h)))
  else if proc = proc_setattr then
    run dec_setattr_args (enc_res enc_fattr) (fun (h, s) ->
        served_attr t h (changed t h (b.Fs_intf.fs_setattr cred (import_fh t h) s)))
  else if proc = proc_lookup then
    run dec_diropargs (enc_res enc_lookup_ok) (fun (dir, name) ->
        export_lookup t (b.Fs_intf.fs_lookup cred ~dir:(import_fh t dir) name))
  else if proc = proc_access then
    run dec_access_args (enc_res enc_access_ok) (fun (h, want) ->
        let ih = import_fh t h in
        let* granted = b.Fs_intf.fs_access cred ih want in
        let* a = b.Fs_intf.fs_getattr cred ih in
        Ok (t.handles.attr h a, granted))
  else if proc = proc_readlink then
    run dec_fh (enc_res (fun e s -> Xdr.enc_string e s)) (fun h ->
        b.Fs_intf.fs_readlink cred (import_fh t h))
  else if proc = proc_read then
    run dec_read_args (enc_res enc_read_ok) (fun (h, off, count) ->
        match b.Fs_intf.fs_read cred (import_fh t h) ~off ~count with
        | Ok (data, eof, a) -> Ok (data, eof, t.handles.attr h a)
        | Error _ as err -> err)
  else if proc = proc_write then
    run dec_write_args (enc_res enc_fattr) (fun (h, off, stable, data) ->
        served_attr t h (changed t h (b.Fs_intf.fs_write cred (import_fh t h) ~off ~stable data)))
  else if proc = proc_create || proc = proc_mkdir then
    let make = if proc = proc_create then b.Fs_intf.fs_create else b.Fs_intf.fs_mkdir in
    run dec_create_args (enc_res enc_lookup_ok) (fun (dir, name, mode) ->
        export_lookup t (changed t dir (make cred ~dir:(import_fh t dir) name ~mode)))
  else if proc = proc_symlink then
    run dec_symlink_args (enc_res enc_lookup_ok) (fun (dir, name, target) ->
        export_lookup t (changed t dir (b.Fs_intf.fs_symlink cred ~dir:(import_fh t dir) name ~target)))
  else if proc = proc_remove || proc = proc_rmdir then
    let unlink = if proc = proc_remove then b.Fs_intf.fs_remove else b.Fs_intf.fs_rmdir in
    run dec_diropargs (enc_res enc_unit_ok) (fun (dir, name) ->
        changed t dir (unlink cred ~dir:(import_fh t dir) name))
  else if proc = proc_rename then
    run dec_rename_args (enc_res enc_unit_ok) (fun (fd, fn, td, tn) ->
        let from_dir = import_fh t fd and to_dir = import_fh t td in
        let r = b.Fs_intf.fs_rename cred ~from_dir ~from_name:fn ~to_dir ~to_name:tn in
        changed t td (changed t fd r))
  else if proc = proc_link then
    run dec_link_args (enc_res enc_fattr) (fun (target, dir, name) ->
        let it = import_fh t target and idir = import_fh t dir in
        let r = b.Fs_intf.fs_link cred ~target:it ~dir:idir name in
        served_attr t target (changed t target (changed t dir r)))
  else if proc = proc_readdirplus then
    run dec_fh (enc_res enc_readdir_ok) (fun h ->
        let* entries = b.Fs_intf.fs_readdir cred (import_fh t h) in
        t.handles.grant h;
        Ok (List.map (export_dirent t) entries))
  else if proc = proc_fsstat then
    run dec_fh (enc_res enc_fsstat_ok) (fun h -> b.Fs_intf.fs_fsstat cred (import_fh t h))
  else if proc = proc_commit then
    run dec_read_args (enc_res enc_unit_ok) (fun (h, _off, _count) ->
        b.Fs_intf.fs_commit cred (import_fh t h))
  else No_proc

(* The counting/span wrapper sits here (not in [handle_call]) so the
   SFS server path — which calls [dispatch_into] directly with its own
   credential mapping — is observed too. *)
let dispatch_into (t : t) (cred : Simos.cred) (proc : int) (args : string) (e : Xdr.enc) : outcome =
  match t.obs with
  | None -> dispatch_body t cred proc args e
  | Some _ as obs ->
      let name = Nfs_proto.proc_name proc in
      Obs.incr obs "nfs.calls";
      Obs.incr obs (if proc >= 0 && proc < Array.length op_keys then op_keys.(proc) else op_key proc);
      Obs.span obs ~cat:"nfs" name (fun () -> dispatch_body t cred proc args e)

(* Marshal the reply to one call into [e]: the accepted-reply header,
   then the results, written in place by [dispatch_into]. *)
let handle_call (t : t) (e : Xdr.enc) (c : Sunrpc.call) : unit =
  let xid = c.Sunrpc.xid in
  Xdr.reset e;
  (* Adopt the caller's trace context (if any) so the dispatch span and
     counters attach to the causing client op. *)
  let ctx =
    if c.Sunrpc.trace > 0 then Some { Obs.cx_trace = c.Sunrpc.trace; cx_span = c.Sunrpc.span }
    else None
  in
  Obs.with_ctx t.obs ctx @@ fun () ->
  let open Nfs_proto in
  if c.Sunrpc.prog = mount_prog then
    if c.Sunrpc.vers <> mount_vers then
      Sunrpc.enc_reply e ~xid (Sunrpc.Prog_mismatch (mount_vers, mount_vers))
    else if c.Sunrpc.proc <> mount_proc_mnt then Sunrpc.enc_reply e ~xid Sunrpc.Proc_unavail
    else begin
      Sunrpc.enc_success e ~xid;
      enc_fh e (t.handles.export t.backend.Fs_intf.fs_root)
    end
  else if c.Sunrpc.prog <> prog then Sunrpc.enc_reply e ~xid Sunrpc.Prog_unavail
  else if c.Sunrpc.vers <> vers then Sunrpc.enc_reply e ~xid (Sunrpc.Prog_mismatch (vers, vers))
  else begin
    Sunrpc.enc_success e ~xid;
    match dispatch_into t (cred_of_rpc c.Sunrpc.cred) c.Sunrpc.proc c.Sunrpc.args e with
    | Done -> ()
    | (Bad_args | No_proc) as refused ->
        Xdr.reset e;
        Sunrpc.enc_reply e ~xid (if refused = Bad_args then Sunrpc.Garbage_args else Sunrpc.Proc_unavail)
  end

(* The answer to bytes that do not parse as a call: RPC garbage. *)
let garbage_reply = Xdr.encode (fun e () -> Sunrpc.enc_reply e ~xid:0 Sunrpc.Garbage_args) ()

(* A per-connection duplicate request cache holds each reply's wire
   message.  A hit needs byte-identical request bytes: a distinct call
   that reuses an xid executes. *)
let dup_cache_size = 128

let service (t : t) : Simnet.service =
 fun ~peer:_ ->
  let drc = Drc.create ?obs:t.obs ~bound:dup_cache_size ~counters:"nfs" () in
  let enc = Xdr.make_enc () in
  fun bytes ->
    match Sunrpc.msg_of_string bytes with
    | Ok (Sunrpc.Call c) -> (
        match Drc.find drc c.Sunrpc.xid with
        | Some (req, reply) when String.equal req bytes ->
            Obs.incr t.obs "recover.retransmit_hit";
            reply
        | _ ->
            handle_call t enc c;
            let reply = Xdr.to_string enc (* sfslint: allow SL013 — the wire message, which the DRC entry keeps *) in
            ignore (Drc.admit drc c.Sunrpc.xid (bytes, reply));
            reply)
    | Result.Error _ | Ok (Sunrpc.Reply _) ->
        (* Garbage never enters the cache. *)
        garbage_reply
