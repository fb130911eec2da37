(* The single-client SFS world of read-seq and meta-mix: the same
   assembly [Stacks.make Stacks.Sfs] builds (512-bit keys, encrypting
   channel, lease-based caching, rpc window 16, readahead 16), put
   together here from public constructors so that the traced run can
   install its wrappers before the mount:

   - a default Simnet tap, whose To_server / To_client messages bracket
     the server's handling of one exchange;
   - a timed backend [Fs_intf.ops] between sfssd and Memfs_ops;
   - a timed [Authserv.backend] for signature validation.

   The untraced run uses the identical assembly without them. *)

module Simclock = Sfs_net.Simclock
module Simnet = Sfs_net.Simnet
module Simos = Sfs_os.Simos
module Memfs = Sfs_nfs.Memfs
module Memfs_ops = Sfs_nfs.Memfs_ops
module Diskmodel = Sfs_nfs.Diskmodel
module Cachefs = Sfs_nfs.Cachefs
module Fs_intf = Sfs_nfs.Fs_intf
module Nfs_types = Sfs_nfs.Nfs_types
module Prng = Sfs_crypto.Prng
module Rabin = Sfs_crypto.Rabin
module Obs = Sfs_obs.Obs
module Core = Sfs_core

type t = {
  clock : Simclock.t;
  server_fs : Memfs.t;
  server_disk : Diskmodel.t;
  vfs : Core.Vfs.t;
  cred : Simos.cred;
  workdir : string; (* /sfs/<self-certifying path>/bench *)
  cache : Cachefs.t;
  obs : Obs.registry;
  wire : int ref; (* bytes the tap saw, both directions *)
}

let server_location = "server.lcs.mit.edu"
let client_host = "client.lcs.mit.edu"
let key_bits = 512
let rpc_window = 16

(* The wrapped backend: every call is one span of its kind. *)
let timed_backend (tr : Trace.t) (b : Fs_intf.ops) : Fs_intf.ops =
  let meta f = Trace.within tr Trace.Be_meta f in
  {
    Fs_intf.fs_root = b.Fs_intf.fs_root;
    fs_getattr = (fun c fh -> meta (fun () -> b.fs_getattr c fh));
    fs_setattr = (fun c fh s -> meta (fun () -> b.fs_setattr c fh s));
    fs_lookup = (fun c ~dir n -> meta (fun () -> b.fs_lookup c ~dir n));
    fs_access = (fun c fh m -> meta (fun () -> b.fs_access c fh m));
    fs_readlink = (fun c fh -> meta (fun () -> b.fs_readlink c fh));
    fs_read =
      (fun c fh ~off ~count -> Trace.within tr Trace.Be_read (fun () -> b.fs_read c fh ~off ~count));
    fs_write =
      (fun c fh ~off ~stable d ->
        Trace.within tr Trace.Be_write (fun () -> b.fs_write c fh ~off ~stable d));
    fs_create = (fun c ~dir n ~mode -> meta (fun () -> b.fs_create c ~dir n ~mode));
    fs_mkdir = (fun c ~dir n ~mode -> meta (fun () -> b.fs_mkdir c ~dir n ~mode));
    fs_symlink = (fun c ~dir n ~target -> meta (fun () -> b.fs_symlink c ~dir n ~target));
    fs_remove = (fun c ~dir n -> meta (fun () -> b.fs_remove c ~dir n));
    fs_rmdir = (fun c ~dir n -> meta (fun () -> b.fs_rmdir c ~dir n));
    fs_rename =
      (fun c ~from_dir ~from_name ~to_dir ~to_name ->
        meta (fun () -> b.fs_rename c ~from_dir ~from_name ~to_dir ~to_name));
    fs_link = (fun c ~target ~dir n -> meta (fun () -> b.fs_link c ~target ~dir n));
    fs_readdir = (fun c fh -> meta (fun () -> b.fs_readdir c fh));
    fs_commit = (fun c fh -> Trace.within tr Trace.Be_write (fun () -> b.fs_commit c fh));
    fs_fsstat = (fun c fh -> meta (fun () -> b.fs_fsstat c fh));
  }

let timed_auth (tr : Trace.t) (b : Core.Authserv.backend) : Core.Authserv.backend =
  {
    b with
    Core.Authserv.b_validate =
      (fun ~authmsg ~authid ~seqno ->
        Trace.within tr Trace.Validate (fun () -> b.Core.Authserv.b_validate ~authmsg ~authid ~seqno));
  }

(* The passive tap keeps every message it sees; clearing [observed] on
   each message keeps the traced run from measuring its own growth. *)
let bracket_tap (tr : Trace.t) (wire : int ref) : Simnet.tap =
  let tap = Simnet.passive_tap () in
  tap.Simnet.on_message <-
    (fun dir msg ->
      tap.Simnet.observed <- [];
      wire := !wire + String.length msg;
      (match dir with
      | Simnet.To_server -> Trace.enter tr Trace.Rpc
      | Simnet.To_client -> Trace.leave tr Trace.Rpc);
      Simnet.Pass);
  tap

let fail fmt = Printf.ksprintf failwith fmt

(* Assemble, key, mount and authenticate.  [disk_blocks] sizes the
   server's Diskmodel cache. *)
let make ?(tr : Trace.t option) ~(disk_blocks : int) () : t =
  let clock = Simclock.create () in
  (* The span cap the crowd engines use, so the registry stops growing
     within the warm-up. *)
  let obs = Obs.create ~max_spans:20_000 ~now_us:(fun () -> Simclock.now_us clock) () in
  let net = Simnet.create ~obs clock in
  let wire = ref 0 in
  (match tr with Some tr -> Simnet.set_default_tap net (Some (bracket_tap tr wire)) | None -> ());
  let server_host = Simnet.add_host net server_location in
  let _client_h = Simnet.add_host net client_host in
  let now () = Nfs_types.time_of_us (Simclock.now_us clock) in
  let os = Simos.create () in
  let user = Simos.add_user os "bench" in
  let cred = Simos.cred_of_user user in
  let server_fs = Memfs.create ~fsid:7 ~now () in
  let params = { Diskmodel.default_params with Diskmodel.cache_blocks = disk_blocks } in
  let server_disk = Diskmodel.create ~params clock in
  let backend = Memfs_ops.make ~fs:server_fs ~disk:server_disk in
  let backend = match tr with Some tr -> timed_backend tr backend | None -> backend in
  let root_cred = Simos.cred_of_user Simos.root_user in
  (match Memfs.mkdir server_fs root_cred ~dir:Memfs.root_id "bench" ~mode:0o777 with
  | Ok _ -> ()
  | Error e -> fail "mkdir /bench: %s" (Nfs_types.status_to_string e));
  let client_fs = Memfs.create ~fsid:1 ~now () in
  let client_disk = Diskmodel.create ~params clock in
  let client_root = Memfs_ops.make ~fs:client_fs ~disk:client_disk in
  let rng = Prng.create [ "stack-rng"; "SFS" ] in
  let server_key = Rabin.generate ~bits:key_bits rng in
  let authserv = Core.Authserv.create ~obs rng in
  Core.Authserv.add_user authserv ~user:"bench" ~cred;
  let user_key = Rabin.generate ~bits:key_bits rng in
  (match Core.Authserv.register_pubkey authserv ~user:"bench" user_key.Rabin.pub with
  | Ok () -> ()
  | Error e -> fail "register: %s" e);
  let auth_backend =
    match tr with Some tr -> Some (timed_auth tr (Core.Authserv.backend authserv)) | None -> None
  in
  let server =
    Core.Server.create ?auth_backend ~obs net ~host:server_host ~location:server_location
      ~key:server_key ~rng ~backend ~authserv ()
  in
  let client =
    Core.Client.create ~encrypt:true ~cache_policy:Cachefs.sfs_policy ~rpc_window
      ~readahead:rpc_window ~obs net ~from_host:client_host ~rng ()
  in
  let vfs = Core.Vfs.make ~sfscd:client ~clock ~root_fs:client_root () in
  let agent = Core.Agent.create ~now_us:(fun () -> Simclock.now_us clock) ~obs user in
  Core.Agent.add_key agent user_key;
  Core.Vfs.set_agent vfs ~uid:user.Simos.uid agent;
  let path = Core.Server.self_path server in
  let m =
    match Trace.opt tr Trace.Mount (fun () -> Core.Client.mount client path) with
    | Ok m -> m
    | Error e -> fail "mount: %s" (Core.Client.mount_error_to_string e)
  in
  ignore (Trace.opt tr Trace.Auth (fun () -> Core.Client.authenticate client m agent));
  {
    clock;
    server_fs;
    server_disk;
    vfs;
    cred;
    workdir = Core.Pathname.to_string path ^ "/bench";
    cache = Core.Client.cache m;
    obs;
    wire;
  }

let counter (w : t) (name : string) : int = Obs.counter w.obs name
