(* Fleet-scale simulation: the read-write kind of the Crowd engine.  A
   client connects by mounting (key negotiation), authenticating
   through its agent and resolving its working handles; each op is one
   Cachefs call.  Ops are independent NFS calls, so a failed one is
   counted and the client moves on.  A client's muxes keep private
   server timelines; the engine re-accounts each action's measured
   server time on the host's run queue ({!Simnet.host_occupy}). *)

module Simnet = Sfs_net.Simnet
module Simos = Sfs_os.Simos
module Memfs = Sfs_nfs.Memfs
module Memfs_ops = Sfs_nfs.Memfs_ops
module Diskmodel = Sfs_nfs.Diskmodel
module Fs_intf = Sfs_nfs.Fs_intf
module Lease = Sfs_proto.Lease
module Prng = Sfs_crypto.Prng
module Rabin = Sfs_crypto.Rabin
module Core = Sfs_core
module Obs = Sfs_obs.Obs
module Sketch = Sfs_obs.Sketch

type workload =
  | Hotfile
  | Zipf of { dirs : int; files_per_dir : int; file_bytes : int; theta : float }

type arrival = Crowd.arrival = Stagger of float | Ramp of float

type config = {
  clients : int;
  servers : int;
  auth_shards : int;
  user_pool : int; (* distinct users (and keys) shared round-robin *)
  window : int; (* rpc window; 1 = fully serial clients *)
  readahead : int;
  ops_per_client : int;
  admit_per_server : int option; (* connection admission cap per server *)
  hot_write_every : int; (* every k-th client also writes the hot file *)
  seed : string;
  fault : Sfs_fault.Fault.spec option;
  workload : workload;
  arrival : arrival;
}

let default : config =
  {
    clients = 8;
    servers = 2;
    auth_shards = 2;
    user_pool = 4;
    window = 16;
    readahead = 16;
    ops_per_client = 4;
    admit_per_server = None;
    hot_write_every = 4;
    seed = "fleet";
    fault = None;
    workload = Hotfile;
    arrival = Stagger 200.0;
  }

(* Fixed for every fleet. *)
let server_key_bits = 512 (* encryption target: OAEP needs >= 512 bits *)
let user_key_bits = 384 (* signing only, so the smaller modulus is fine *)
let mount_retry_limit = 999 (* a client gives up on its 1000th failed mount *)

let zipf_cdf = Crowd.zipf_cdf
let zipf_sample = Crowd.zipf_sample

type result = {
  r_cfg : config;
  r_completed : int; (* micro-ops that returned Ok *)
  r_failed : int; (* micro-ops that errored or raised *)
  r_mount_ok : int;
  r_mount_failed : int;
  r_mount_retries : int; (* re-dials after admission refusal / crash *)
  r_last_ready_us : float;
  r_op_lat : Sketch.t; (* per-op latency, microseconds *)
  r_mount_lat : Sketch.t;
  r_dropped_invals : int; (* invalidations still pending at unmount *)
  r_events : int;
  r_servers : Core.Server.t array;
  r_hosts : Simnet.host array;
  r_obs : Obs.registry;
}

let throughput_ops_s (r : result) : float =
  Crowd.throughput r.r_completed ~last_ready_us:r.r_last_ready_us

let server_loc (s : int) : string = Printf.sprintf "srv%d.fleet.lcs.mit.edu" s
let client_loc (i : int) : string = Printf.sprintf "c%d.client.fleet" i

(* A mount, its ops, and the working handles resolved right after it. *)
type mounted = {
  m : Core.Client.mount;
  o : Fs_intf.ops;
  cred : Simos.cred;
  fh_hot : string;
  fh_own : string;
  fh_bench : string;
}

(* Per-client state; client i mounts server i mod servers as user
   i mod user_pool. *)
type cl = {
  idx : int;
  cc : Core.Client.t;
  mutable mounted : mounted option;
  zrng : Prng.t option; (* Zipf draw stream; None under Hotfile *)
  zfh : (int, string) Hashtbl.t; (* file index -> resolved handle *)
}

let hot_read_bytes = 4096
let own_write_bytes = 1024

let run (cfg : config) : result =
  if cfg.clients < 1 || cfg.servers < 1 || cfg.auth_shards < 1 || cfg.user_pool < 1 then
    invalid_arg "Fleet.run: counts must be positive";
  let w = Crowd.world () in
  let clock = w.Crowd.clock and obs = w.Crowd.obs and net = w.Crowd.net in
  let now () = Sfs_nfs.Nfs_types.time_of_us (Sfs_net.Simclock.now_us clock) in
  (* --- the authserv ring --- *)
  let shards =
    Array.init cfg.auth_shards (fun i ->
        Core.Authserv.create ~obs (Prng.create [ cfg.seed; "authshard"; string_of_int i ]))
  in
  let ring = Core.Authshard.create ~obs shards in
  let auth_backend = Core.Authshard.backend ring in
  (* --- users: a pool of keys shared round-robin by the clients --- *)
  let os = Simos.create () in
  let root_cred = Simos.cred_of_user Simos.root_user in
  let users =
    Array.init cfg.user_pool (fun j ->
        let name = "u" ^ string_of_int j in
        let user = Simos.add_user os name in
        let cred = Simos.cred_of_user user in
        let key =
          Rabin.generate ~bits:user_key_bits (Prng.create [ cfg.seed; "userkey"; string_of_int j ])
        in
        ignore (Core.Authshard.add_user_key ring ~user:name ~cred key.Rabin.pub);
        let agent = Core.Agent.create ~now_us:(fun () -> Sfs_net.Simclock.now_us clock) ~obs user in
        Core.Agent.add_key agent key;
        (cred, agent))
  in
  (* --- the server farm --- *)
  let mk_server s =
    let location = server_loc s in
    let host = Simnet.add_host net location in
    let fs = Memfs.create ~fsid:(100 + s) ~now () in
    let disk = Diskmodel.create clock in
    let backend = Memfs_ops.make ~fs ~disk in
    let bench =
      match Memfs.mkdir fs root_cred ~dir:Memfs.root_id "bench" ~mode:0o777 with
      | Ok (ino, _) -> ino
      | Error _ -> assert false
    in
    (* Seed the shared hot file and each resident client's own file so
       the measured phase is pure steady-state traffic (no create
       storm). *)
    Crowd.write_file fs ~dir:bench "hot" (String.make hot_read_bytes 'x');
    let i = ref s in
    while !i < cfg.clients do
      Crowd.write_file fs ~dir:bench ("c" ^ string_of_int !i) (String.make own_write_bytes 'x');
      i := !i + cfg.servers
    done;
    (match cfg.workload with
    | Hotfile -> ()
    | Zipf z ->
        ignore
          (Crowd.seed_zipf_tree fs ~parent:bench ~dirs:z.dirs ~files_per_dir:z.files_per_dir
             ~file_bytes:z.file_bytes));
    let rng = Prng.create [ cfg.seed; "server"; string_of_int s ] in
    let key = Rabin.generate ~bits:server_key_bits rng in
    let srv =
      Core.Server.create ~auth_backend ~obs net ~host ~location ~key ~rng
        ~backend ~authserv:shards.(s mod cfg.auth_shards) ()
    in
    Simnet.set_admission host cfg.admit_per_server;
    (srv, host)
  in
  let servers, hosts = Array.split (Array.init cfg.servers mk_server) in
  (* --- the clients: one shared temp key (generating thousands of
     K_C's is real CPU for no model fidelity), private rngs --- *)
  let temp_key = Rabin.generate ~bits:512 (Prng.create [ cfg.seed; "tempkey" ]) in
  let mk_client i =
    let from = client_loc i in
    ignore (Simnet.add_host net from);
    let cc =
      Core.Client.create ~temp_key ~rpc_window:cfg.window
        ~readahead:cfg.readahead ~obs net ~from_host:from
        ~rng:(Prng.create [ cfg.seed; "client"; string_of_int i ])
        ()
    in
    let zrng =
      match cfg.workload with
      | Hotfile -> None
      | Zipf _ -> Some (Prng.create [ cfg.seed; "zipf"; string_of_int i ])
    in
    { idx = i; cc; mounted = None; zrng; zfh = Hashtbl.create 8 }
  in
  let cls = Array.init cfg.clients mk_client in
  let dropped_invals = ref 0 in
  let get = function Some v -> v | None -> assert false in
  let ( let* ) r f = match r with Ok v -> f v | Error _ -> Error Crowd.Fatal in
  let status = function Ok _ -> Ok () | Error _ -> Error Crowd.Fatal in
  (* The flash-crowd micro-op: draw a file by Zipf popularity, resolve
     its handle through the protocol once (then a client-side name
     cache), and read it whole.  All-read by construction — the rw arm
     of the CDN figure measures serving cost, not write contention. *)
  let do_zipf_op ~(cdf : float array) ~(files_per_dir : int) ~(file_bytes : int) (c : cl)
      (_ : int) =
    let { o; cred; fh_bench; _ } = get c.mounted in
    let file = zipf_sample cdf (get c.zrng) in
    let* fh =
      match Hashtbl.find_opt c.zfh file with
      | Some fh -> Ok fh
      | None ->
          let dname, fname = Crowd.zipf_names ~files_per_dir file in
          let* d, _ = o.Fs_intf.fs_lookup cred ~dir:fh_bench dname in
          let* fh, _ = o.Fs_intf.fs_lookup cred ~dir:d fname in
          Hashtbl.replace c.zfh file fh;
          Ok fh
    in
    let* data, _, _ = o.Fs_intf.fs_read cred fh ~off:0 ~count:file_bytes in
    if String.length data = file_bytes then Ok () else Error Crowd.Fatal
  in
  (* Micro-op k for client i.  Reads of the shared hot file dominate
     (lease fan-in: every client holds it); writes go to the client's
     own pre-seeded file; every [hot_write_every]-th client's last op
     writes the hot file, triggering an invalidation to every holder. *)
  let do_hotfile_op (c : cl) (k : int) =
    let { o; cred; fh_hot; fh_own; _ } = get c.mounted in
    let hot_writer = cfg.hot_write_every > 0 && c.idx mod cfg.hot_write_every = 0 in
    if hot_writer && k = cfg.ops_per_client - 1 then
      let off = c.idx mod 16 * 256 in
      status (o.Fs_intf.fs_write cred fh_hot ~off ~stable:true (String.make 256 'w'))
    else if k land 1 = 0 then status (o.Fs_intf.fs_read cred fh_hot ~off:0 ~count:hot_read_bytes)
    else status (o.Fs_intf.fs_write cred fh_own ~off:0 ~stable:false (String.make 64 'o'))
  in
  (* The unmount's final write-behind flush may bring callbacks back
     with its reply, so what is left is counted after it. *)
  let release (c : cl) (m : Core.Client.mount) =
    Fun.protect
      ~finally:(fun () -> dropped_invals := !dropped_invals + Core.Client.pending_invalidations m)
      (fun () -> Core.Client.unmount c.cc m)
  in
  (* Mount, authenticate, resolve the working handles: one connect
     step.  Admission refusals and crash windows surface as
     Host_unreachable / timeout; those back off and re-dial.  A setup
     that fails after the mount is made unmounts it: the client would
     otherwise hand the same poisoned mount to every redial, and its
     connection would never close. *)
  let do_mount (c : cl) =
    let cred, agent = users.(c.idx mod cfg.user_pool) in
    match Core.Client.mount c.cc (Core.Server.self_path servers.(c.idx mod cfg.servers)) with
    | Error (Core.Client.Host_unreachable _) -> Error Crowd.Retry
    | Error _ -> Error Crowd.Fatal
    | Ok m -> (
        match
          ignore (Core.Client.authenticate c.cc m agent);
          let o = Core.Client.ops m in
          let* fh_bench, _ = o.Fs_intf.fs_lookup cred ~dir:o.Fs_intf.fs_root "bench" in
          let* fh_hot, _ = o.Fs_intf.fs_lookup cred ~dir:fh_bench "hot" in
          let* fh_own, _ = o.Fs_intf.fs_lookup cred ~dir:fh_bench ("c" ^ string_of_int c.idx) in
          c.mounted <- Some { m; o; cred; fh_hot; fh_own; fh_bench };
          Ok ()
        with
        | Ok () -> Ok ()
        | Error _ as e ->
            release c m;
            e
        | exception e ->
            release c m;
            raise e)
  in
  let do_unmount (c : cl) =
    let mounted = c.mounted in
    c.mounted <- None;
    Option.iter (fun { m; _ } -> release c m) mounted
  in
  let kind =
    {
      Crowd.host = (fun c -> hosts.(c.idx mod cfg.servers));
      connect = do_mount;
      op =
        (match cfg.workload with
        | Hotfile -> do_hotfile_op
        | Zipf z ->
            let cdf = zipf_cdf ~n:(z.dirs * z.files_per_dir) ~theta:z.theta in
            do_zipf_op ~cdf ~files_per_dir:z.files_per_dir ~file_bytes:z.file_bytes);
      redial = ignore;
      refresh = ignore;
      finish = do_unmount;
      retry_ops = false;
      retry_limit = mount_retry_limit;
    }
  in
  let on_restart =
    Array.to_list
      (Array.mapi (fun s srv -> (server_loc s, fun () -> Core.Server.crash_recover srv)) servers)
  in
  let t =
    Crowd.run w kind ~arrival:cfg.arrival ~ops:cfg.ops_per_client ~fault:cfg.fault ~on_restart cls
  in
  {
    r_cfg = cfg;
    r_completed = t.Crowd.ops_ok;
    r_failed = t.Crowd.ops_failed;
    r_mount_ok = t.Crowd.connected;
    r_mount_failed = t.Crowd.gave_up;
    r_mount_retries = t.Crowd.redials;
    r_last_ready_us = t.Crowd.last_ready_us;
    r_op_lat = t.Crowd.op_lat;
    r_mount_lat = t.Crowd.connect_lat;
    r_dropped_invals = !dropped_invals;
    r_events = t.Crowd.events;
    r_servers = servers;
    r_hosts = hosts;
    r_obs = obs;
  }

(* --- reconciliation: the obs counters must balance against live
   state, or the fan-in machinery lost something.  Exact equalities on
   fault-free runs (the 10k smoke test asserts them all). *)
let reconcile (r : result) : (string * bool) list =
  let snap = Obs.snapshot r.r_obs in
  let ctr name = Obs.snap_counter snap name in
  let drc_live = Array.fold_left (fun a s -> a + Core.Server.drc_entries s) 0 r.r_servers in
  let lease_pending =
    Array.fold_left (fun a s -> a + Lease.pending_count (Core.Server.leases s)) 0 r.r_servers
  in
  let shard_validates =
    List.fold_left
      (fun a (name, v) -> if String.starts_with ~prefix:"authshard." name then a + v else a)
      0 snap.Obs.snap_counters
  in
  [
    ("ops_accounted", r.r_completed + r.r_failed = r.r_mount_ok * r.r_cfg.ops_per_client);
    ("drc_balance", ctr "server.drc_insert" - ctr "server.drc_evict" = drc_live);
    ( "invalidations_balance",
      ctr "lease.invalidations" = ctr "cache.invalidations" + r.r_dropped_invals + lease_pending );
    ("no_retransmits", ctr "recover.retransmit_hit" = 0);
    ("all_conns_closed", Array.for_all (fun h -> Simnet.host_active_conns h = 0) r.r_hosts);
    ("auth_routed", shard_validates = r.r_mount_ok);
    ("all_mounted", r.r_mount_ok + r.r_mount_failed = r.r_cfg.clients);
  ]

let ledger (r : result) : string =
  let c = r.r_cfg in
  Crowd.ledger r.r_obs
    ~header:
      (Printf.sprintf "fleet clients=%d servers=%d shards=%d window=%d ops=%d" c.clients c.servers
         c.auth_shards c.window c.ops_per_client)
    ~tally:
      (Printf.sprintf "tally completed=%d failed=%d mount_ok=%d mount_failed=%d retries=%d"
         r.r_completed r.r_failed r.r_mount_ok r.r_mount_failed r.r_mount_retries)
    ~last_ready_us:r.r_last_ready_us
    ~sketches:[ ("op_lat", r.r_op_lat); ("mount_lat", r.r_mount_lat) ]
