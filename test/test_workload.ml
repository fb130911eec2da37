(* Workload/benchmark harness tests: the stacks build and behave, and
   the headline shapes of the paper's evaluation hold as invariants. *)

open Sfs_workload
module Simclock = Sfs_net.Simclock

let test_stacks_construct () =
  List.iter
    (fun s ->
      let w = Stacks.make s in
      (* Every stack exposes a usable workdir. *)
      Driver.write_file w (w.Stacks.workdir ^ "/probe") "ok";
      Testkit.check_string (Stacks.stack_name s) "ok" (Driver.read_file w (w.Stacks.workdir ^ "/probe")))
    [ Stacks.Local; Stacks.Nfs_udp; Stacks.Nfs_tcp; Stacks.Sfs; Stacks.Sfs_noenc; Stacks.Sfs_nocache ]

let test_driver_helpers () =
  let w = Stacks.make Stacks.Local in
  let d = w.Stacks.workdir ^ "/helpers" in
  Driver.mkdir w d;
  Driver.write_file w (d ^ "/f") (Driver.content ~seed:3 100);
  Testkit.check_int "content length" 100 (String.length (Driver.read_file w (d ^ "/f")));
  Testkit.check_string "content deterministic" (Driver.content ~seed:3 100) (Driver.content ~seed:3 100);
  Testkit.check_bool "content varies by seed" false (Driver.content ~seed:3 100 = Driver.content ~seed:4 100);
  let names = Driver.readdir w d in
  Alcotest.(check (list string)) "readdir" [ "f" ] names;
  Driver.stat_probe w (d ^ "/missing");
  Driver.unlink w (d ^ "/f");
  Driver.stat_probe w (d ^ "/f")

(* Figure 5's rows for NFS 3 UDP, NFS 3 TCP, SFS and SFS without
   encryption, measured once for both shape tests. *)
let fig5 = lazy (List.map (fun s -> fst (Microbench.run s)) Stacks.[ Nfs_udp; Nfs_tcp; Sfs; Sfs_noenc ])

let fig5_column (f : Microbench.result -> float) : float * float * float * float =
  match List.map f (Lazy.force fig5) with
  | [ udp; tcp; sfs; noenc ] -> (udp, tcp, sfs, noenc)
  | _ -> assert false

let test_fig5_latency_shape () =
  (* The headline shape of Figure 5: SFS latency is several times NFS,
     dominated by the user-level implementation, not encryption. *)
  let udp, tcp, sfs, noenc = fig5_column (fun r -> r.Microbench.latency_us) in
  Testkit.check_bool "udp ~200us" true (udp > 150.0 && udp < 300.0);
  Testkit.check_bool "tcp slower than udp" true (tcp > udp);
  Testkit.check_bool "sfs 3-5x nfs" true (sfs > 3.0 *. udp && sfs < 5.0 *. udp);
  Testkit.check_bool "encryption is a small share" true (sfs -. noenc < 0.15 *. sfs);
  Testkit.check_bool "noenc still far above tcp" true (noenc > 2.0 *. tcp)

let test_fig5_throughput_shape () =
  let udp, tcp, sfs, noenc = fig5_column (fun r -> r.Microbench.throughput_mb_s) in
  (* The paper's ordering: UDP 9.3 > TCP 7.6 > noenc 7.1 > SFS 4.1.
     The server seals every reply, so encryption costs streaming
     throughput: SFS reads 0.58 of noenc in the paper. *)
  Testkit.check_bool "udp fastest" true (udp > tcp);
  Testkit.check_bool "tcp above noenc" true (tcp > noenc);
  Testkit.check_bool "noenc at or above sfs" true (noenc >= sfs);
  Testkit.check_bool "udp ~9MB/s" true (udp > 7.0 && udp < 11.0);
  Testkit.check_bool "encryption costs 20% or more" true (sfs <= 0.8 *. noenc)

let test_mab_shape () =
  let total s = Mab.total (Mab.run (Stacks.make s)) in
  let local = total Stacks.Local in
  let udp = total Stacks.Nfs_udp in
  let sfs = total Stacks.Sfs in
  let nocache = total Stacks.Sfs_nocache in
  Testkit.check_bool "local fastest" true (local < udp);
  Testkit.check_bool "sfs slower than nfs" true (sfs > udp);
  (* "SFS is only 11% slower than NFS 3 over UDP" — allow 25%. *)
  Testkit.check_bool "sfs within 25% of nfs/udp" true (sfs < 1.25 *. udp);
  (* "Without enhanced caching, MAB takes ... 0.7 seconds slower." *)
  Testkit.check_bool "enhanced caching helps" true (nocache > sfs)

let test_lfs_small_shape () =
  let run s = Sprite_lfs.run_small (Stacks.make s) in
  let udp = run Stacks.Nfs_udp in
  let sfs = run Stacks.Sfs in
  (* Create: "SFS performs about the same as NFS 3 over UDP". *)
  Testkit.check_bool "create within 20%" true
    (sfs.Sprite_lfs.create_s < 1.2 *. udp.Sprite_lfs.create_s);
  (* Read: "SFS is 3 times slower than NFS 3 over UDP" (2-5x band). *)
  let ratio = sfs.Sprite_lfs.read_s /. udp.Sprite_lfs.read_s in
  Testkit.check_bool "read 2-5x slower" true (ratio > 2.0 && ratio < 5.0);
  (* Unlink: "all file systems have roughly the same performance". *)
  Testkit.check_bool "unlink within 10%" true
    (sfs.Sprite_lfs.unlink_s < 1.1 *. udp.Sprite_lfs.unlink_s)

(* Figure 9's write ordering: SFS's sequential write is slower than
   NFS 3 over UDP (the paper has it 44% above), which is slower than
   the local file system.  Write-behind's accounting must keep it.
   SFS's sequential read takes at least twice NFS 3 over UDP's (the
   paper has it 145% above): every 8 KB reply pays its seal. *)
let test_fig9_write_ordering () =
  let large s = Sprite_lfs.run_large (Stacks.make s) in
  let local = large Stacks.Local in
  let udp = large Stacks.Nfs_udp in
  let sfs = large Stacks.Sfs in
  Testkit.check_bool "sfs above nfs/udp" true (sfs.Sprite_lfs.seq_write_s > udp.Sprite_lfs.seq_write_s);
  Testkit.check_bool "nfs/udp above local" true
    (udp.Sprite_lfs.seq_write_s > local.Sprite_lfs.seq_write_s);
  Testkit.check_bool "sfs seq read 2x nfs/udp" true
    (sfs.Sprite_lfs.seq_read_s >= 2.0 *. udp.Sprite_lfs.seq_read_s)

let test_compile_crossover () =
  (* Figure 7's coup: SFS beats NFS 3 over TCP while losing to UDP. *)
  let time s = Compile.run (Stacks.make s) in
  let local = time Stacks.Local in
  let udp = time Stacks.Nfs_udp in
  let tcp = time Stacks.Nfs_tcp in
  let sfs = time Stacks.Sfs in
  Testkit.check_bool "local < udp" true (local < udp);
  Testkit.check_bool "udp < sfs" true (udp < sfs);
  Testkit.check_bool "sfs < tcp (the crossover)" true (sfs < tcp)

let test_flush_caches () =
  let w = Stacks.make Stacks.Sfs in
  Driver.write_file w (w.Stacks.workdir ^ "/cached") "data";
  ignore (Driver.read_file w (w.Stacks.workdir ^ "/cached"));
  Stacks.flush_caches w;
  (* Still correct after the flush; just slower. *)
  Testkit.check_string "reread after flush" "data" (Driver.read_file w (w.Stacks.workdir ^ "/cached"))

(* A client's write must win over readahead it submitted before the
   write: a sequential run arms readahead past block 14, the client
   overwrites block 14, and the next read of it returns the new bytes,
   not the prefetched old ones, on every remote stack. *)
let test_readahead_after_own_write () =
  let bs = 8192 in
  List.iter
    (fun s ->
      let w = Stacks.make ~rpc_window:16 s in
      let path = w.Stacks.workdir ^ "/seq" in
      Driver.write_file w path (String.make (64 * bs) 'a');
      Driver.commit w path;
      Stacks.flush_caches w;
      for b = 0 to 11 do
        ignore (Driver.read_at w path ~off:(b * bs) ~count:bs)
      done;
      Driver.write_at w path ~off:(14 * bs) (String.make bs 'Z');
      let got = Driver.read_at w path ~off:(14 * bs) ~count:bs in
      Testkit.check_bool (Stacks.stack_name s ^ ": block 14 holds the write") true
        (got = String.make bs 'Z'))
    [ Stacks.Nfs_udp; Stacks.Nfs_tcp; Stacks.Sfs; Stacks.Sfs_noenc ]

(* --- Wire pin: every frame of a short mix on each read-write stack --- *)

module Simnet = Sfs_net.Simnet
module Cachefs = Sfs_nfs.Cachefs

(* Remount [w]'s remote file system under a default tap, so the tap
   sees every frame from the dial on: NFS through a fresh MOUNT that
   shadows the primed one at /mnt, SFS through a fresh automount on the
   next path lookup.  Returns a cache flush for the new mount. *)
let tapped_remount (w : Stacks.world) (tap : Simnet.tap) ~(rpc_window : int) : unit -> unit =
  Simnet.set_default_tap w.Stacks.net (Some tap);
  match w.Stacks.sfs_client with
  | Some client ->
      List.iter (Sfs_core.Client.unmount client) (Sfs_core.Client.mounts client);
      fun () ->
        List.iter
          (fun m -> Cachefs.invalidate_all (Sfs_core.Client.cache m))
          (Sfs_core.Client.mounts client)
  | None ->
      let proto = if w.Stacks.stack = Stacks.Nfs_udp then Sfs_net.Costmodel.Udp else Sfs_net.Costmodel.Tcp in
      let ops, pipeline =
        Sfs_nfs.Nfs_client.mount ~obs:w.Stacks.obs ~window:rpc_window ~readahead:8
          w.Stacks.net ~from_host:Stacks.client_host ~addr:Stacks.server_location ~proto
          ~cred:(Sfs_os.Simos.cred_of_user Sfs_os.Simos.root_user)
      in
      let cache =
        Cachefs.create ~obs:w.Stacks.obs ~clock:w.Stacks.clock ?pipeline ~policy:Cachefs.nfs_policy ops
      in
      Sfs_core.Vfs.add_mount w.Stacks.vfs ~at:"/mnt" (Cachefs.ops cache);
      fun () -> Cachefs.invalidate_all cache

(* SHA-1 over every frame a short mix puts on the wire: an unstable
   (write-behind) WRITE, a sequential read long enough to arm readahead,
   a readdir and a remove.  NFS frames are hashed with their leading
   xid zeroed, so the pin holds however the client numbers its calls;
   SFS frames are hashed whole, and the tapped remount numbers its
   calls after the first mount's: a client machine has one xid space. *)
let wire_digest (s : Stacks.stack) ~(rpc_window : int) : string =
  let w = Stacks.make ~rpc_window ~readahead:8 s in
  let tap = Simnet.passive_tap () in
  let flush = tapped_remount w tap ~rpc_window in
  let path = w.Stacks.workdir ^ "/pin" in
  let data = Driver.content ~seed:26 (24 * 8192) in
  Driver.write_file w path data;
  Driver.commit w path;
  flush ();
  Testkit.check_bool "read back" true (Driver.read_file w path = data);
  ignore (Driver.readdir w w.Stacks.workdir);
  Driver.unlink w path;
  Testkit.check_bool "readahead ran" (rpc_window > 1)
    (Sfs_obs.Obs.counter w.Stacks.obs "mux.submit" > 0);
  let ctx = Sfs_crypto.Sha1.init () in
  let nfs = w.Stacks.sfs_client = None in
  List.iter
    (fun (dir, frame) ->
      Sfs_crypto.Sha1.update ctx (if dir = Simnet.To_server then ">" else "<");
      Sfs_crypto.Sha1.update ctx
        (if nfs && String.length frame >= 4 then
           "\000\000\000\000" ^ String.sub frame 4 (String.length frame - 4)
         else frame))
    (List.rev tap.Simnet.observed);
  Sfs_util.Hex.encode (Sfs_crypto.Sha1.final ctx)

let test_wire_pin () =
  List.iter
    (fun (s, rpc_window, want) ->
      Testkit.check_string
        (Printf.sprintf "%s, window %d" (Stacks.stack_name s) rpc_window)
        want (wire_digest s ~rpc_window))
    [
      (Stacks.Nfs_udp, 1, "29f58fac36be9139ad9f4d896a4af59e380caf15");
      (Stacks.Nfs_udp, 16, "234550d9a776aff8e7a77cf886fcf99db7bd4979");
      (Stacks.Nfs_tcp, 1, "78455d382be5025c766358044479ffc4dc37bc78");
      (Stacks.Nfs_tcp, 16, "89a12ea3eda46b29bbe4f01a7588e2c7215bf9bc");
      (Stacks.Sfs, 1, "c576f0f81cf567b37e8f5c85f5130521b757bbbb");
      (Stacks.Sfs, 16, "a969c32b4a400cc592bb7df093e607ef3c3f57d3");
      (Stacks.Sfs_noenc, 1, "7ef68c522be34c707a5c1b430b69593ab01fcad3");
      (Stacks.Sfs_noenc, 16, "e627a5d0f9ea862624f3c25fb5f6bf779a267fe9");
    ]

(* --- Fleet: the discrete-event mass-client engine (DESIGN.md §15) --- *)

let check_reconcile r =
  List.iter (fun (name, ok) -> Testkit.check_bool ("reconcile: " ^ name) true ok) (Fleet.reconcile r)

let test_fleet_smoke () =
  let r = Fleet.run Fleet.default in
  check_reconcile r;
  Testkit.check_int "all mounted" Fleet.default.Fleet.clients r.Fleet.r_mount_ok;
  Testkit.check_int "all ops completed"
    (Fleet.default.Fleet.clients * Fleet.default.Fleet.ops_per_client)
    r.Fleet.r_completed;
  Testkit.check_int "no failures" 0 r.Fleet.r_failed;
  Testkit.check_bool "throughput positive" true (Fleet.throughput_ops_s r > 0.0);
  (* The hot file's writers must have triggered lease fan-out. *)
  Testkit.check_bool "invalidations fanned out" true
    (Sfs_obs.Obs.counter r.Fleet.r_obs "lease.invalidations" > 0)

let test_fleet_admission () =
  (* One server capped at 2 concurrent connections, 6 clients arriving
     at once: mounts must be refused, back off, re-dial, and all
     eventually complete. *)
  let cfg =
    {
      Fleet.default with
      Fleet.clients = 6;
      servers = 1;
      admit_per_server = Some 2;
      arrival = Fleet.Stagger 0.0;
    }
  in
  let r = Fleet.run cfg in
  check_reconcile r;
  Testkit.check_int "all mounted despite the cap" 6 r.Fleet.r_mount_ok;
  Testkit.check_bool "refusals happened" true
    (Sfs_obs.Obs.counter r.Fleet.r_obs "net.admission.refused" > 0);
  Testkit.check_bool "re-dials counted" true (r.Fleet.r_mount_retries > 0)

let test_fleet_drop_mount_setup () =
  (* Dropped frames during mount setup (authentication, the handle
     lookups) fail the connect step after the client has cached the
     mount.  The fleet must drop that mount, so the redial negotiates a
     fresh channel instead of reusing the poisoned one, and every
     connection is closed at the end. *)
  let r =
    Fleet.run
      {
        Fleet.default with
        Fleet.clients = 60;
        user_pool = 8;
        ops_per_client = 6;
        admit_per_server = Some 30;
        hot_write_every = 10;
        seed = "soak";
        fault = Some (Sfs_fault.Fault.make ~drop_pm:200 ~seed:"p1" ());
      }
  in
  Testkit.check_int "all mounted" 60 r.Fleet.r_mount_ok;
  Testkit.check_bool "all connections closed" true
    (List.assoc "all_conns_closed" (Fleet.reconcile r));
  Testkit.check_bool "last client ready within 5 s" true (r.Fleet.r_last_ready_us < 5e6)

let test_fleet_corrupt_connect_retried () =
  (* The chaos soak's corrupt-1pct plan.  The connect step travels in
     the clear, so a reply corrupted in transit fails key negotiation
     ("cannot decrypt server key halves", trailing bytes): the client
     dials again, as the read-only crowd does, instead of giving up. *)
  let r =
    Fleet.run
      {
        Fleet.default with
        Fleet.clients = 60;
        servers = 2;
        auth_shards = 2;
        user_pool = 8;
        ops_per_client = 6;
        admit_per_server = Some 30;
        hot_write_every = 10;
        seed = "soak";
        fault = Some (Sfs_fault.Fault.make ~corrupt_pm:100 ~seed:"soak/corrupt-1pct" ());
      }
  in
  Testkit.check_int "every client mounted" 60 r.Fleet.r_mount_ok;
  Testkit.check_int "none gave up" 0 r.Fleet.r_mount_failed;
  Testkit.check_bool "a corrupted connect step was dialled again" true (r.Fleet.r_mount_retries > 0)

let test_fleet_unmount_flushes () =
  (* Each client's two unstable writes to its own file sit in the
     write-behind buffer; the second flushes the first, and unmount must
     flush the second rather than drop it. *)
  let r = Fleet.run { Fleet.default with Fleet.hot_write_every = 0 } in
  check_reconcile r;
  Testkit.check_int "server WRITEs" 16 (Sfs_obs.Obs.counter r.Fleet.r_obs "nfs.op.write")

let test_fleet_determinism () =
  (* Two same-config runs must produce byte-identical ledgers — the
     property the chaos-soak job checks at scale. *)
  let cfg = { Fleet.default with Fleet.clients = 24; user_pool = 8 } in
  let l1 = Fleet.ledger (Fleet.run cfg) in
  let l2 = Fleet.ledger (Fleet.run cfg) in
  Testkit.check_bool "byte-identical ledgers" true (String.equal l1 l2);
  Testkit.check_bool "ledger non-trivial" true (String.length l1 > 200)

let test_fleet_10k () =
  (* The acceptance smoke: 10,000 concurrent clients over a 4-server
     farm and a 4-shard authserv ring; every lease/DRC counter must
     reconcile against live state afterwards. *)
  let cfg =
    {
      Fleet.default with
      Fleet.clients = 10_000;
      servers = 4;
      auth_shards = 4;
      user_pool = 16;
      admit_per_server = Some 4000;
      hot_write_every = 500;
    }
  in
  let r = Fleet.run cfg in
  check_reconcile r;
  Testkit.check_int "all 10k mounted" 10_000 r.Fleet.r_mount_ok;
  Testkit.check_int "all ops completed" 40_000 r.Fleet.r_completed;
  Testkit.check_int "no failures" 0 r.Fleet.r_failed;
  let p99 = Sfs_obs.Sketch.quantile r.Fleet.r_op_lat 0.99 in
  let p50 = Sfs_obs.Sketch.quantile r.Fleet.r_op_lat 0.50 in
  Testkit.check_bool "latency quantiles ordered" true (0 < p50 && p50 <= p99)

let test_fleet_zipf () =
  (* The read-write arm of the CDN figure: Zipf reads over the
     two-level tree, ramp arrivals. *)
  let cfg =
    {
      Fleet.default with
      Fleet.clients = 32;
      servers = 1;
      ops_per_client = 6;
      workload = Fleet.Zipf { dirs = 4; files_per_dir = 8; file_bytes = 1024; theta = 1.0 };
      arrival = Fleet.Ramp 20_000.0;
    }
  in
  let r = Fleet.run cfg in
  check_reconcile r;
  Testkit.check_int "all mounted" 32 r.Fleet.r_mount_ok;
  Testkit.check_int "all reads completed" (32 * 6) r.Fleet.r_completed;
  Testkit.check_int "no failures" 0 r.Fleet.r_failed

(* --- Flashcrowd: the read-only CDN tier --- *)

let check_fc_reconcile r =
  List.iter
    (fun (name, ok) -> Testkit.check_bool ("fc reconcile: " ^ name) true ok)
    (Flashcrowd.reconcile r)

let test_flashcrowd_smoke () =
  (* Enough reads per client for each verification cache to warm up. *)
  let cfg = { Flashcrowd.default with Flashcrowd.reads_per_client = 12 } in
  let r = Flashcrowd.run cfg in
  check_fc_reconcile r;
  Testkit.check_int "all clients finished" cfg.Flashcrowd.clients r.Flashcrowd.r_clients_ok;
  Testkit.check_int "no failed reads" 0 r.Flashcrowd.r_reads_failed;
  Testkit.check_bool "throughput positive" true (Flashcrowd.throughput_reads_s r > 0.0);
  (* The verification cache must be doing its job: far more objects
     reach applications than are verified. *)
  let obs = r.Flashcrowd.r_obs in
  Testkit.check_bool "cache hits dominate" true
    (Sfs_obs.Obs.counter obs "ro.verify.hit" > Sfs_obs.Obs.counter obs "ro.verify.ok")

let test_flashcrowd_determinism () =
  let cfg = { Flashcrowd.default with Flashcrowd.clients = 48; replicas = 3 } in
  let l1 = Flashcrowd.ledger (Flashcrowd.run cfg) in
  let l2 = Flashcrowd.ledger (Flashcrowd.run cfg) in
  Testkit.check_bool "byte-identical ledgers" true (String.equal l1 l2);
  Testkit.check_bool "ledger non-trivial" true (String.length l1 > 200)

let test_flashcrowd_admission_failover () =
  (* Tight admission on two mirrors: clients must be refused, back off,
     and fail over to the least-loaded mirror — and still all finish. *)
  let cfg =
    {
      Flashcrowd.default with
      Flashcrowd.clients = 24;
      replicas = 2;
      admit_per_mirror = Some 4;
      ramp_us = 1_000.0;
    }
  in
  let r = Flashcrowd.run cfg in
  check_fc_reconcile r;
  Testkit.check_int "all clients finished despite the caps" 24 r.Flashcrowd.r_clients_ok;
  Testkit.check_bool "refusals happened" true
    (Sfs_obs.Obs.counter r.Flashcrowd.r_obs "net.admission.refused" > 0);
  Testkit.check_bool "failovers counted" true (r.Flashcrowd.r_failovers > 0)

let test_flashcrowd_republish () =
  (* A mid-crowd incremental publish: the delta fans out, stale objects
     are evicted, clients refresh onto the new root, and nothing
     unverified ever surfaces. *)
  let cfg =
    {
      Flashcrowd.default with
      Flashcrowd.clients = 40;
      reads_per_client = 8;
      republish_at_us = Some 60_000.0;
    }
  in
  let r = Flashcrowd.run cfg in
  check_fc_reconcile r;
  Testkit.check_int "republish happened" 1 r.Flashcrowd.r_republishes;
  Testkit.check_int "all clients finished" 40 r.Flashcrowd.r_clients_ok;
  Testkit.check_int "nothing unverified" 0 r.Flashcrowd.r_bad_content;
  Testkit.check_bool "incremental publish reused objects" true
    (Sfs_obs.Obs.counter r.Flashcrowd.r_obs "ro.publish.reused" > 0)

let test_flashcrowd_wrong_key_mirror () =
  (* One mirror of three answers the connect step with a key its
     pathname does not name (the tap substitutes it in each of that
     mirror's connect replies), and a good mirror crashes while loaded.
     A client that leaves a mirror does not draw it again until it has
     left every mirror: each client must fail over past the refusing
     mirror, not back to it, and finish its reads without a byte read
     from it. *)
  let module Xdr = Sfs_xdr.Xdr in
  let module Keyneg = Sfs_proto.Keyneg in
  let module Simnet = Sfs_net.Simnet in
  let bad = Flashcrowd.mirror_loc 1 in
  let other = Sfs_crypto.Rabin.generate ~bits:512 (Sfs_crypto.Prng.create [ "another key" ]) in
  let wrong =
    Xdr.encode Keyneg.enc_connect_res (Keyneg.Connect_ok { pubkey = other.Sfs_crypto.Rabin.pub })
  in
  let to_bad =
    Xdr.encode
      (fun e () ->
        Xdr.enc_string e "sfs-1";
        Xdr.enc_string e bad)
      ()
  in
  let tap = Simnet.passive_tap () in
  let connecting = ref false and bad_connects = ref 0 in
  tap.Simnet.on_message <-
    (fun dir msg ->
      match dir with
      | Simnet.To_server ->
          connecting := String.starts_with ~prefix:to_bad msg;
          if !connecting then incr bad_connects;
          Simnet.Pass
      | Simnet.To_client when !connecting ->
          connecting := false;
          Simnet.Replace wrong
      | Simnet.To_client -> Simnet.Pass);
  let crash =
    { Sfs_fault.Fault.c_host = Flashcrowd.mirror_loc 2; c_down_us = 60_000.0; c_up_us = 150_000.0 }
  in
  let cfg =
    {
      Flashcrowd.default with
      Flashcrowd.clients = 30;
      replicas = 3;
      reads_per_client = 12;
      ramp_us = 1_000.0;
      fault = Some (Sfs_fault.Fault.make ~crashes:[ crash ] ~seed:"wrong-key mirror" ());
    }
  in
  let r = Flashcrowd.run ~tap cfg in
  check_fc_reconcile r;
  Testkit.check_int "every client finished" 30 r.Flashcrowd.r_clients_ok;
  Testkit.check_int "every read done" (30 * 12) r.Flashcrowd.r_reads_ok;
  Testkit.check_bool "the crash turned clients away" true
    (Sfs_obs.Obs.counter r.Flashcrowd.r_obs "fault.refused" > 0);
  (* Ten clients are handed its pathname, six of the ten leaving the
     crashed mirror draw it, and none returns: each refused once. *)
  Testkit.check_int "refusals: ten handed it, six that drew it" 16 !bad_connects;
  Testkit.check_bool "each client refused by it at most once" true (!bad_connects <= 20);
  Testkit.check_int "every request it got was a connect step" !bad_connects
    (Sfs_obs.Obs.counter r.Flashcrowd.r_obs
       (Printf.sprintf "net.%s:%d.rpcs" bad Keyneg.sfs_port))

let test_flashcrowd_dropped_push_connection () =
  (* The initial fan-out's reply to mirror 2's Put_root is garbled:
     mirror 2 stores the root, but the publisher counts a failed
     fan-out and drops its push connection, which mirrors 0 and 1
     keep.  Mirror 0 then crashes while loaded.  A client that leaves a
     mirror avoids it until it has left every mirror, so mirror 0 sees
     only its first ten connect steps.  Each client draws its next
     mirror from its own host name and how many mirrors it has left,
     knowing nothing of the others: the ten leave in one burst, and
     their local draws split it five and five between mirrors 1 and 2,
     so mirror 2's missing push connection neither earns nor costs it
     a failover. *)
  let module Xdr = Sfs_xdr.Xdr in
  let module Simnet = Sfs_net.Simnet in
  let put_root = "\000\000\000\003\000\000\000\tRO-FSInfo" in
  let connect_to m =
    Xdr.encode
      (fun e () ->
        Xdr.enc_string e "sfs-1";
        Xdr.enc_string e (Flashcrowd.mirror_loc m))
      ()
  in
  let tap = Simnet.passive_tap () in
  let roots = ref 0 and garble = ref false and connects = Array.make 3 0 in
  tap.Simnet.on_message <-
    (fun dir msg ->
      match dir with
      | Simnet.To_server ->
          if String.starts_with ~prefix:put_root msg then begin
            incr roots;
            (* the fan-out pushes to mirrors 0, 1, 2 in turn *)
            garble := !roots = 3
          end;
          Array.iteri
            (fun m n -> if String.starts_with ~prefix:(connect_to m) msg then connects.(m) <- n + 1)
            connects;
          Simnet.Pass
      | Simnet.To_client when !garble ->
          garble := false;
          Simnet.Replace "garbled"
      | Simnet.To_client -> Simnet.Pass);
  let crash =
    { Sfs_fault.Fault.c_host = Flashcrowd.mirror_loc 0; c_down_us = 60_000.0; c_up_us = 150_000.0 }
  in
  let cfg =
    {
      Flashcrowd.default with
      Flashcrowd.clients = 30;
      replicas = 3;
      reads_per_client = 12;
      ramp_us = 1_000.0;
      fault = Some (Sfs_fault.Fault.make ~crashes:[ crash ] ~seed:"dropped push connection" ());
    }
  in
  let r = Flashcrowd.run ~tap cfg in
  Testkit.check_int "one failed fan-out" 1 r.Flashcrowd.r_fanout_failures;
  List.iter
    (fun (name, ok) -> if name <> "fanout_clean" then Testkit.check_bool ("fc reconcile: " ^ name) true ok)
    (Flashcrowd.reconcile r);
  Testkit.check_int "every client finished" 30 r.Flashcrowd.r_clients_ok;
  Testkit.check_int "every read done" (30 * 12) r.Flashcrowd.r_reads_ok;
  Testkit.check_bool "the crash turned clients away" true (r.Flashcrowd.r_failovers > 0);
  Testkit.check_int "mirror 0: its first ten clients only" 10 connects.(0);
  Testkit.check_int "mirror 1: its ten clients and five that left mirror 0" 15 connects.(1);
  Testkit.check_int "mirror 2: its ten clients and the other five" 15 connects.(2)

let test_flashcrowd_20k () =
  (* Past the read-write fleet's 10^4: slim per-connection state lets
     the crowd double without the engine breaking a sweat.  Every
     accounting invariant must still reconcile exactly. *)
  let cfg =
    {
      Flashcrowd.default with
      Flashcrowd.clients = 20_000;
      replicas = 8;
      dirs = 8;
      files_per_dir = 32;
      file_bytes = 1024;
      reads_per_client = 2;
      vcache_objs = 64;
      admit_per_mirror = Some 4000;
      ramp_us = 2_000_000.0;
    }
  in
  let r = Flashcrowd.run cfg in
  check_fc_reconcile r;
  Testkit.check_int "all 20k finished" 20_000 r.Flashcrowd.r_clients_ok;
  Testkit.check_int "all reads completed" 40_000 r.Flashcrowd.r_reads_ok;
  let p50 = Sfs_obs.Sketch.quantile r.Flashcrowd.r_read_lat 0.50 in
  let p99 = Sfs_obs.Sketch.quantile r.Flashcrowd.r_read_lat 0.99 in
  Testkit.check_bool "latency quantiles ordered" true (0 < p50 && p50 <= p99)

(* --- Crowd: one engine, typed failures --- *)

let test_crowd_failure_classes () =
  (* One client whose first op fails once, by each route into the
     engine's failure classes: a route failure re-dials, a verification
     failure refreshes and re-walks, anything else gives up — unless
     the kind skips failed ops. *)
  let run ?(retry_ops = true) (fail : unit -> (unit, Crowd.failure) result) =
    let w = Crowd.world () in
    let h = Sfs_net.Simnet.add_host w.Crowd.net "server" in
    let failed = ref false in
    let kind =
      {
        Crowd.host = (fun () -> h);
        connect = (fun () -> Ok ());
        op =
          (fun () _ ->
            if !failed then Ok ()
            else begin
              failed := true;
              fail ()
            end);
        redial = ignore;
        refresh = ignore;
        finish = ignore;
        retry_ops;
        retry_limit = 3;
      }
    in
    let t = Crowd.run w kind ~arrival:(Crowd.Stagger 0.0) ~ops:2 ~fault:None [| () |] in
    [ t.Crowd.connected; t.Crowd.redials; t.Crowd.refreshes; t.Crowd.ops_ok; t.Crowd.gave_up ]
  in
  (* [connected; redials; refreshes; ops_ok; gave_up] *)
  let check = Alcotest.(check (list int)) in
  check "timeout re-dials" [ 2; 1; 0; 2; 0 ] (run (fun () -> raise Sfs_net.Simnet.Timeout));
  check "no route re-dials" [ 2; 1; 0; 2; 0 ] (run (fun () -> raise (Sfs_net.Simnet.No_route "x")));
  check "verification failure refreshes" [ 1; 0; 1; 2; 0 ]
    (run (fun () -> raise (Sfs_core.Readonly.Verification_failed "x")));
  check "other exceptions give up" [ 1; 0; 0; 0; 1 ] (run (fun () -> failwith "x"));
  check "Fatal gives up" [ 1; 0; 0; 0; 1 ] (run (fun () -> Error Crowd.Fatal));
  check "skipped, not retried" [ 1; 0; 0; 1; 0 ] (run ~retry_ops:false (fun () -> Error Crowd.Retry))

let test_flashcrowd_missing_entry () =
  (* A crowd client's read over a verified snapshot's ops.  A path the
     signed tree does not have is a shape error like a wrong object
     type: Fatal, so the client gives up instead of failing over to a
     mirror that serves the same tree.  A failed verification is an
     I/O error through the ops: Refresh, so the client refreshes the
     root and reads again. *)
  let module Ro = Sfs_proto.Readonly_proto in
  let module Readonly = Sfs_core.Readonly in
  let module Memfs = Sfs_nfs.Memfs in
  let root_cred = Sfs_os.Simos.cred_of_user Sfs_os.Simos.root_user in
  let clock = Simclock.create () in
  let now () = Sfs_nfs.Nfs_types.time_of_us (Simclock.now_us clock) in
  let fs = Memfs.create ~fsid:1 ~now () in
  Crowd.write_file fs
    ~dir:
      (match Memfs.mkdir fs root_cred ~dir:Memfs.root_id "d0" ~mode:0o755 with
      | Ok (d, _) -> d
      | Error _ -> assert false)
    "f0" "bytes";
  let key = Sfs_crypto.Rabin.generate ~bits:512 (Sfs_crypto.Prng.create [ "missing-entry" ]) in
  let snap = Readonly.snapshot ~key ~now_s:0 fs in
  let store = Readonly.store ~clock snap in
  let file_hash = Ro.hash_obj (Ro.O_file "bytes") in
  (* [tamper] serves the root directory's bytes for the file's hash. *)
  let tamper = ref false in
  let exchange req =
    match Ro.ro_request_of_string req with
    | Ok (Ro.Get_obj h) when !tamper && h = file_hash ->
        Readonly.serve store (Ro.ro_request_to_string (Ro.Get_obj (Readonly.fsinfo snap).Ro.root_hash))
    | _ -> Readonly.serve store req
  in
  let c = Readonly.connect ~cache_objs:1 ~exchange ~pubkey:key.Sfs_crypto.Rabin.pub ~clock () in
  let ops = Readonly.ops c in
  let read names = Flashcrowd.read ops ~root:(Readonly.current_fsinfo c).Ro.root_hash names in
  Testkit.check_bool "present path reads" true (read [ "d0"; "f0" ] = Ok "bytes");
  Testkit.check_bool "no file entry (NOENT)" true (read [ "d0"; "f1" ] = Error Crowd.Fatal);
  Testkit.check_bool "no dir entry (NOENT)" true (read [ "d1"; "f0" ] = Error Crowd.Fatal);
  Testkit.check_bool "file is not a directory (NOTDIR)" true
    (read [ "d0"; "f0"; "x" ] = Error Crowd.Fatal);
  Testkit.check_bool "directory is not a file (ISDIR)" true (read [ "d0" ] = Error Crowd.Fatal);
  (* One cache slot: the file is fetched again, and its substitute
     fails verification. *)
  tamper := true;
  Testkit.check_bool "failed verification (IO)" true (read [ "d0"; "f0" ] = Error Crowd.Refresh);
  tamper := false;
  Testkit.check_bool "reads again once served honestly" true (read [ "d0"; "f0" ] = Ok "bytes")

(* --- Golden ledgers: SHA-1 of each engine's ledger for small fixed
   configs.  The determinism tests above only compare two runs of one
   build; these pin the bytes across builds, so an engine refactor that
   claims byte-identity has to keep every digest unchanged. *)

let ledger_sha1 (ledger : string) : string = Sfs_util.Hex.encode (Sfs_crypto.Sha1.digest ledger)

let crash_window ~host ~down_s ~up_s =
  { Sfs_fault.Fault.c_host = host; c_down_us = down_s *. 1e6; c_up_us = up_s *. 1e6 }

let golden_fleet =
  [
    ("default", Fleet.default, "7e7696825b4037ad2c72f3cf9866dcbba7cf4b11");
    ( "admission cap",
      { Fleet.default with Fleet.clients = 6; servers = 1; admit_per_server = Some 2 },
      "938a0236b1b5f8fb278ce27f86f02ebe6075b999" );
    ( "zipf ramp",
      {
        Fleet.default with
        Fleet.clients = 32;
        servers = 1;
        ops_per_client = 6;
        workload = Fleet.Zipf { dirs = 4; files_per_dir = 8; file_bytes = 1024; theta = 1.0 };
        arrival = Fleet.Ramp 20_000.0;
      },
      "f34d291683e8ed70c61c49c0db0903d73e8d8157" );
    ( "server crash",
      {
        Fleet.default with
        Fleet.clients = 16;
        admit_per_server = Some 6;
        fault =
          Some
            (Sfs_fault.Fault.make
               ~crashes:[ crash_window ~host:"srv0.fleet.lcs.mit.edu" ~down_s:0.02 ~up_s:0.1 ]
               ~seed:"golden/rw-crash" ());
      },
      "d97f7640f9ab017dd01bacd5201ee7aa4e9f0506" );
  ]

let golden_flashcrowd =
  [
    ("default + republish", { Flashcrowd.default with Flashcrowd.republish_at_us = Some 30_000.0 },
      "df1829bf0335a286f85111c2c2808ed50561fe35" );
    ( "mirror crash",
      {
        Flashcrowd.default with
        Flashcrowd.clients = 24;
        replicas = 3;
        reads_per_client = 6;
        admit_per_mirror = Some 12;
        republish_at_us = Some 120_000.0;
        fault =
          Some
            (Sfs_fault.Fault.make
               ~crashes:[ crash_window ~host:(Flashcrowd.mirror_loc 0) ~down_s:0.03 ~up_s:0.1 ]
               ~seed:"golden/ro-crash" ());
      },
      "95d5a7ce92ec1724fb195405a82836cf27b458a2" );
  ]

(* Every digest is computed before the test fails, so one run names
   each moved ledger with its wanted and actual SHA-1. *)
let test_golden_ledgers () =
  let results =
    List.map
      (fun (name, cfg, want) ->
        ("fleet " ^ name, want, ledger_sha1 (Fleet.ledger (Fleet.run cfg))))
      golden_fleet
    @ List.map
        (fun (name, cfg, want) ->
          ("flashcrowd " ^ name, want, ledger_sha1 (Flashcrowd.ledger (Flashcrowd.run cfg))))
        golden_flashcrowd
  in
  let moved = List.filter (fun (_, want, got) -> want <> got) results in
  List.iter (fun (name, want, got) -> Printf.printf "%s: want %s got %s\n" name want got) moved;
  Testkit.check_int "golden ledgers that moved" 0 (List.length moved)

let suite =
  ( "workload",
    [
      Alcotest.test_case "stacks construct" `Quick test_stacks_construct;
      Alcotest.test_case "driver helpers" `Quick test_driver_helpers;
      Alcotest.test_case "fig5 latency shape" `Quick test_fig5_latency_shape;
      Alcotest.test_case "fig5 throughput shape" `Slow test_fig5_throughput_shape;
      Alcotest.test_case "fig6 MAB shape" `Slow test_mab_shape;
      Alcotest.test_case "fig8 LFS small shape" `Slow test_lfs_small_shape;
      Alcotest.test_case "fig7 compile crossover" `Slow test_compile_crossover;
      Alcotest.test_case "fig9 write ordering" `Slow test_fig9_write_ordering;
      Alcotest.test_case "flush caches" `Quick test_flush_caches;
      Alcotest.test_case "readahead after own write" `Quick test_readahead_after_own_write;
      Alcotest.test_case "wire pin" `Quick test_wire_pin;
      Alcotest.test_case "fleet smoke" `Quick test_fleet_smoke;
      Alcotest.test_case "fleet admission" `Quick test_fleet_admission;
      Alcotest.test_case "fleet drop during mount setup" `Quick test_fleet_drop_mount_setup;
      Alcotest.test_case "fleet corrupted connect step retried" `Quick
        test_fleet_corrupt_connect_retried;
      Alcotest.test_case "fleet unmount flushes write-behind" `Quick test_fleet_unmount_flushes;
      Alcotest.test_case "fleet determinism" `Quick test_fleet_determinism;
      Alcotest.test_case "fleet 10k clients" `Slow test_fleet_10k;
      Alcotest.test_case "fleet zipf reads" `Quick test_fleet_zipf;
      Alcotest.test_case "flashcrowd smoke" `Quick test_flashcrowd_smoke;
      Alcotest.test_case "flashcrowd determinism" `Quick test_flashcrowd_determinism;
      Alcotest.test_case "flashcrowd admission failover" `Quick test_flashcrowd_admission_failover;
      Alcotest.test_case "flashcrowd republish" `Quick test_flashcrowd_republish;
      Alcotest.test_case "flashcrowd dropped push connection" `Quick
        test_flashcrowd_dropped_push_connection;
      Alcotest.test_case "flashcrowd wrong-key mirror among good ones" `Quick
        test_flashcrowd_wrong_key_mirror;
      Alcotest.test_case "flashcrowd 20k clients" `Slow test_flashcrowd_20k;
      Alcotest.test_case "golden ledgers" `Quick test_golden_ledgers;
      Alcotest.test_case "crowd failure classes" `Quick test_crowd_failure_classes;
      Alcotest.test_case "flashcrowd missing entry is fatal" `Quick test_flashcrowd_missing_entry;
    ] )
