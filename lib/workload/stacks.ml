(* Benchmark stacks: the four systems of the paper's evaluation
   (section 4.1) plus the ablations, assembled over the simulated
   network.

     Local     — FreeBSD's local FFS on the server machine
     NFS3/UDP  — kernel NFS 3 over UDP
     NFS3/TCP  — kernel NFS 3 over TCP
     SFS       — the full system: sfscd, secure channel, sfssd, NFS loop
     SFS w/o encryption — the channel's ARC4 pass disabled
     SFS w/o enhanced caching — client falls back to NFS-style TTLs

   Each stack exposes the same interface: a VFS, credentials, and a
   working directory, so every workload runs unchanged on all of
   them. *)

module Simclock = Sfs_net.Simclock
module Simnet = Sfs_net.Simnet
module Costmodel = Sfs_net.Costmodel
module Simos = Sfs_os.Simos
module Memfs = Sfs_nfs.Memfs
module Memfs_ops = Sfs_nfs.Memfs_ops
module Diskmodel = Sfs_nfs.Diskmodel
module Nfs_server = Sfs_nfs.Nfs_server
module Nfs_client = Sfs_nfs.Nfs_client
module Cachefs = Sfs_nfs.Cachefs
module Nfs_types = Sfs_nfs.Nfs_types
module Prng = Sfs_crypto.Prng
module Rabin = Sfs_crypto.Rabin
module Core = Sfs_core
module Obs = Sfs_obs.Obs
module Fault = Sfs_fault.Fault

type stack = Local | Nfs_udp | Nfs_tcp | Sfs | Sfs_noenc | Sfs_nocache

let stack_name = function
  | Local -> "Local"
  | Nfs_udp -> "NFS 3 (UDP)"
  | Nfs_tcp -> "NFS 3 (TCP)"
  | Sfs -> "SFS"
  | Sfs_noenc -> "SFS w/o encryption"
  | Sfs_nocache -> "SFS w/o enhanced caching"

let all_paper_stacks = [ Local; Nfs_udp; Nfs_tcp; Sfs ]

type world = {
  stack : stack;
  clock : Simclock.t;
  net : Simnet.t;
  server_host : Simnet.host; (* the serving machine's run queue / admission *)
  server_fs : Memfs.t; (* the backing store, for direct seeding *)
  server_disk : Diskmodel.t;
  vfs : Core.Vfs.t;
  cred : Simos.cred;
  workdir : string; (* where workloads operate *)
  sfs_server : Core.Server.t option;
  sfs_client : Core.Client.t option;
  client_cache : Cachefs.t option; (* the NFS/SFS client cache, for invalidation *)
  user : Simos.user;
  agent : Core.Agent.t option;
  obs : Obs.registry;
}

let server_location = "server.lcs.mit.edu"
let client_host = "client.lcs.mit.edu"

(* Compile a fault plan against this world's clock and obs registry and
   install it on the network.  The SFS server's volatile state (leases,
   callback queues) dies with each crash window via the restart hook. *)
let arm_faults (w : world) (spec : Fault.spec) : unit =
  let on_restart =
    match w.sfs_server with
    | Some srv -> [ (server_location, fun () -> Core.Server.crash_recover srv) ]
    | None -> []
  in
  let inj =
    Fault.injector ~obs:w.obs ~on_restart ~now_us:(fun () -> Simclock.now_us w.clock) spec
  in
  Simnet.set_injector w.net (Some inj)

(* A fixed small key size keeps world construction fast; the crypto
   micro-benchmarks measure the full-size primitives separately. *)
let key_bits = 512

(* [rpc_window]/[readahead] select the pipelined dispatch path (DESIGN.md
   §11) on the remote stacks: windowed in-flight RPCs with sequential-read
   readahead, plus write-behind gathering on the SFS stacks.  The defaults
   model the paper's async clients; pass [~rpc_window:1 ~readahead:0] for
   the fully serial lockstep client (the equivalence tests' baseline). *)
let make ?fault ?(server_disk_params = Diskmodel.default_params) ?(rpc_window = 16) ?readahead
    (stack : stack) : world =
  let rpc_window = max 1 rpc_window in
  let readahead = match readahead with Some r -> max 0 r | None -> rpc_window in
  let clock = Simclock.create () in
  (* One registry per world: the deterministic observability spine.
     Everything below it keys its spans and counters to the simulated
     clock, so two identical runs export byte-identical traces. *)
  let obs = Obs.create ~now_us:(fun () -> Simclock.now_us clock) () in
  let net = Simnet.create ~obs clock in
  let server_host = Simnet.add_host net server_location in
  let _client_h = Simnet.add_host net client_host in
  let now () = Nfs_types.time_of_us (Simclock.now_us clock) in
  let os = Simos.create () in
  let user = Simos.add_user os "bench" in
  let cred = Simos.cred_of_user user in
  let server_fs = Memfs.create ~fsid:7 ~now () in
  let server_disk = Diskmodel.create ~params:server_disk_params clock in
  let backend = Memfs_ops.make ~fs:server_fs ~disk:server_disk in
  (* A world-writable bench directory on the served file system. *)
  let root_cred = Simos.cred_of_user Simos.root_user in
  (match Memfs.mkdir server_fs root_cred ~dir:Memfs.root_id "bench" ~mode:0o777 with
  | Ok _ -> ()
  | Error _ -> assert false);
  (* The client machine's own local root file system. *)
  let client_fs = Memfs.create ~fsid:1 ~now () in
  let client_disk = Diskmodel.create ~params:server_disk_params clock in
  let client_root = Memfs_ops.make ~fs:client_fs ~disk:client_disk in
  let vfs, workdir, sfs_server, sfs_client, client_cache, agent =
    match stack with
    | Local ->
        (* Workload runs on the server machine's own disk. *)
        (Core.Vfs.make ~clock ~root_fs:backend (), "/bench", None, None, None, None)
    | Nfs_udp | Nfs_tcp ->
        let server = Nfs_server.create ~obs backend in
        Simnet.listen net server_host ~port:2049 (Nfs_server.service server);
        let proto = if stack = Nfs_udp then Costmodel.Udp else Costmodel.Tcp in
        let ops, pipeline =
          Nfs_client.mount ~obs ~window:rpc_window ~readahead net
            ~from_host:client_host ~addr:server_location ~proto ~cred:root_cred
        in
        (* Readahead only: kernel NFS write traffic already goes through the
           data path's write-behind mux, so the cache stays write-through
           here to keep the fig9 write calibration intact. *)
        let cache = Cachefs.create ~obs ~clock ?pipeline ~policy:Cachefs.nfs_policy ops in
        let vfs = Core.Vfs.make ~clock ~root_fs:client_root () in
        Core.Vfs.add_mount vfs ~at:"/mnt" (Cachefs.ops cache);
        (vfs, "/mnt/bench", None, None, Some cache, None)
    | Sfs | Sfs_noenc | Sfs_nocache ->
        let rng = Prng.create [ "stack-rng"; stack_name stack ] in
        let server_key = Rabin.generate ~bits:key_bits rng in
        let authserv = Core.Authserv.create ~obs rng in
        Core.Authserv.add_user authserv ~user:"bench" ~cred;
        let user_key = Rabin.generate ~bits:key_bits rng in
        (match Core.Authserv.register_pubkey authserv ~user:"bench" user_key.Rabin.pub with
        | Ok () -> ()
        | Error e -> invalid_arg e);
        let server =
          Core.Server.create ~obs net ~host:server_host ~location:server_location ~key:server_key
            ~rng ~backend ~authserv ()
        in
        let encrypt = stack <> Sfs_noenc in
        let cache_policy = if stack = Sfs_nocache then Cachefs.nfs_policy else Cachefs.sfs_policy in
        let client =
          Core.Client.create ~encrypt ~cache_policy ~rpc_window ~readahead ~obs net
            ~from_host:client_host ~rng ()
        in
        let vfs = Core.Vfs.make ~sfscd:client ~clock ~root_fs:client_root () in
        let agent = Core.Agent.create ~now_us:(fun () -> Simclock.now_us clock) ~obs user in
        Core.Agent.add_key agent user_key;
        Core.Vfs.set_agent vfs ~uid:user.Simos.uid agent;
        let path = Core.Server.self_path server in
        (* Prime the mount so workloads measure steady-state traffic, as
           the paper's benchmarks do (the testbed was already mounted). *)
        let cache =
          match Core.Client.mount client path with
          | Ok m ->
              ignore (Core.Client.authenticate client m agent);
              Core.Client.cache m
          | Error e -> invalid_arg (Core.Client.mount_error_to_string e)
        in
        (vfs, Core.Pathname.to_string path ^ "/bench", Some server, Some client, Some cache, Some agent)
  in
  let w =
    {
      stack;
      clock;
      net;
      server_host;
      server_fs;
      server_disk;
      vfs;
      cred;
      workdir;
      sfs_server;
      sfs_client;
      client_cache;
      user;
      agent;
      obs;
    }
  in
  (* Faults arm only after the world is built and primed: construction
     (key exchange, mount, authentication) runs clean, as the paper's
     testbed was already mounted before each run. *)
  (match fault with Some spec -> arm_faults w spec | None -> ());
  w

(* Drop client caches and flush the server disk: simulates the
   unmount/remount benchmark hygiene between phases. *)
let flush_caches (w : world) : unit =
  (match w.client_cache with Some c -> Cachefs.invalidate_all c | None -> ());
  Diskmodel.invalidate w.server_disk

(* Timing helper: simulated seconds consumed by [f]. *)
let timed (w : world) (f : unit -> unit) : float =
  let _, us = Simclock.time w.clock (fun () -> f ()) in
  us /. 1_000_000.0
