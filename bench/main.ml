(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (section 4), plus the in-text ablations and real
   (process-CPU-time) micro-benchmarks of the crypto substrate.

   Usage:
     main.exe [fig5] [fig6] [fig7] [fig8] [fig9] [pipeline] [ablations] [faults] [scale]
              [flashcrowd] [crypto]
              [--trace FILE] [--trace-ops FILE] [--metrics FILE] [--json]
              [--results FILE] [--no-results]

   With no figure arguments, everything runs in order.  Absolute numbers
   come from the calibrated simulation (see DESIGN.md section 2); the
   column annotated "paper" is what the authors measured on their
   testbed.

   Observability: every simulated world carries an Obs registry keyed to
   the simulated clock, so --trace (Chrome trace_event JSON, loadable in
   Perfetto) and --metrics (flat JSONL) are byte-identical across runs.
   Each figure also appends its headline numbers plus all counters to
   BENCH_results.json (one JSON object per line; override the path with
   --results FILE, suppress with --no-results).  The crypto suite and
   the ablations' real-CPU read-only table measure real CPU time and
   are deliberately excluded from all deterministic outputs. *)

open Sfs_workload
module Obs = Sfs_obs.Obs

let hr () = print_endline (String.make 78 '=')

(* --- Run context: everything the exporters need, gathered as figures run --- *)

type fig_out = {
  fo_name : string;
  fo_headers : string list;
  fo_rows : (string * float list) list; (* row label, plain measured values *)
  fo_regs : (string * Obs.registry) list; (* label -> the world's registry *)
}

let figures : fig_out list ref = ref []

(* Record a figure's machine-readable results and print its cross-stack
   counter summary. *)
let record (fo : fig_out) : unit =
  figures := !figures @ [ fo ];
  if fo.fo_regs <> [] then
    print_endline
      (Report.obs_table
         ~title:(Printf.sprintf "Observability counters (%s)" fo.fo_name)
         (List.map (fun (label, r) -> (label, Obs.snapshot r)) fo.fo_regs))

let all_regs () : (string * Obs.registry) list =
  List.concat_map (fun fo -> fo.fo_regs) !figures

(* The common shape of the figure runners: one fresh world per stack,
   run the workload, keep the result and the world's obs registry
   (labelled [fig/stack] for the exporters). *)
let per_stack ?(stacks = Stacks.all_paper_stacks) ~(fig : string) (f : Stacks.world -> 'a) :
    (Stacks.stack * 'a * (string * Obs.registry)) list =
  List.map
    (fun s ->
      let w = Stacks.make s in
      let r = f w in
      (s, r, (Printf.sprintf "%s/%s" fig (Stacks.stack_name s), w.Stacks.obs)))
    stacks

let results_of (measured : (Stacks.stack * 'a * (string * Obs.registry)) list)
    (values : 'a -> float list) : (string * float list) list =
  List.map (fun (s, r, _) -> (Stacks.stack_name s, values r)) measured

let regs_of (measured : (Stacks.stack * 'a * (string * Obs.registry)) list) :
    (string * Obs.registry) list =
  List.map (fun (_, _, reg) -> reg) measured

(* --- Figure 5: latency and throughput micro-benchmarks --- *)

let paper_fig5 = function
  | Stacks.Nfs_udp -> ("200", "9.3")
  | Stacks.Nfs_tcp -> ("220", "7.6")
  | Stacks.Sfs -> ("790", "4.1")
  | Stacks.Sfs_noenc -> ("770", "7.1")
  | Stacks.Local | Stacks.Sfs_nocache -> ("-", "-")

let fig5 () =
  hr ();
  print_endline "Figure 5: micro-benchmarks for basic operations";
  print_endline "(latency: unauthorized fchown; throughput: sequential read of a";
  print_endline " cached 64 MB file in 8 KB chunks — paper used a sparse 1,000 MB file)\n";
  let stacks = [ Stacks.Nfs_udp; Stacks.Nfs_tcp; Stacks.Sfs; Stacks.Sfs_noenc ] in
  let measured =
    List.map
      (fun s ->
        let r, worlds = Microbench.run s in
        let regs =
          List.map2
            (fun phase w -> (Printf.sprintf "fig5/%s/%s" (Stacks.stack_name s) phase, w.Stacks.obs))
            [ "latency"; "throughput" ] worlds
        in
        (s, r, regs))
      stacks
  in
  let rows =
    List.map
      (fun (s, r, _) ->
        let lat_p, thr_p = paper_fig5 s in
        [
          Stacks.stack_name s;
          Report.vs ~paper:lat_p (Report.f0 r.Microbench.latency_us);
          Report.vs ~paper:thr_p (Report.f1 r.Microbench.throughput_mb_s);
        ])
      measured
  in
  print_endline
    (Report.table ~title:"" ~headers:[ "File System"; "Latency (us)"; "Throughput (MB/s)" ] rows);
  record
    {
      fo_name = "fig5";
      fo_headers = [ "latency_us"; "throughput_mb_s" ];
      fo_rows =
        List.map
          (fun (s, r, _) ->
            (Stacks.stack_name s, [ r.Microbench.latency_us; r.Microbench.throughput_mb_s ]))
          measured;
      fo_regs = List.concat_map (fun (_, _, regs) -> regs) measured;
    }

(* --- Figure 6: the Modified Andrew Benchmark --- *)

let paper_fig6 = function
  | Stacks.Local -> "4.3"
  | Stacks.Nfs_udp -> "5.3"
  | Stacks.Nfs_tcp -> "5.6"
  | Stacks.Sfs -> "5.9"
  | Stacks.Sfs_nocache -> "6.6"
  | Stacks.Sfs_noenc -> "-"

let fig6 () =
  hr ();
  print_endline "Figure 6: Modified Andrew Benchmark, wall-clock seconds per phase\n";
  let measured = per_stack ~fig:"fig6" Mab.run in
  let rows =
    List.map
      (fun (s, p, _) ->
        [
          Stacks.stack_name s;
          Report.f1 p.Mab.directories;
          Report.f1 p.Mab.copy;
          Report.f1 p.Mab.attributes;
          Report.f1 p.Mab.search;
          Report.f1 p.Mab.compile;
          Report.vs ~paper:(paper_fig6 s) (Report.f1 (Mab.total p));
        ])
      measured
  in
  print_endline
    (Report.table ~title:""
       ~headers:[ "File System"; "directories"; "copy"; "attributes"; "search"; "compile"; "total" ]
       rows);
  record
    {
      fo_name = "fig6";
      fo_headers = [ "directories"; "copy"; "attributes"; "search"; "compile"; "total" ];
      fo_rows =
        results_of measured (fun p ->
            [
              p.Mab.directories; p.Mab.copy; p.Mab.attributes; p.Mab.search; p.Mab.compile;
              Mab.total p;
            ]);
      fo_regs = regs_of measured;
    }

(* --- Figure 7: compiling the GENERIC kernel --- *)

let paper_fig7 = function
  | Stacks.Local -> "140"
  | Stacks.Nfs_udp -> "178"
  | Stacks.Nfs_tcp -> "207"
  | Stacks.Sfs -> "197"
  | Stacks.Sfs_noenc | Stacks.Sfs_nocache -> "-"

let fig7 () =
  hr ();
  print_endline "Figure 7: compiling the GENERIC FreeBSD 3.3 kernel (seconds)\n";
  let measured = per_stack ~fig:"fig7" Compile.run in
  let rows =
    List.map
      (fun (s, secs, _) ->
        [ Stacks.stack_name s; Report.vs ~paper:(paper_fig7 s) (Report.f0 secs) ])
      measured
  in
  print_endline (Report.table ~title:"" ~headers:[ "System"; "Time (seconds)" ] rows);
  record
    {
      fo_name = "fig7";
      fo_headers = [ "seconds" ];
      fo_rows = results_of measured (fun secs -> [ secs ]);
      fo_regs = regs_of measured;
    }

(* --- Figure 8: Sprite LFS small-file benchmark --- *)

let fig8 () =
  hr ();
  print_endline "Figure 8: Sprite LFS small-file benchmark (1,000 x 1 KB files), seconds\n";
  let measured = per_stack ~fig:"fig8" Sprite_lfs.run_small in
  let rows =
    List.map
      (fun (s, p, _) ->
        [
          Stacks.stack_name s;
          Report.f1 p.Sprite_lfs.create_s;
          Report.f1 p.Sprite_lfs.read_s;
          Report.f1 p.Sprite_lfs.unlink_s;
        ])
      measured
  in
  print_endline (Report.table ~title:"" ~headers:[ "File System"; "create"; "read"; "unlink" ] rows);
  print_endline "Paper's shape: create SFS ~= NFS/UDP; read SFS ~3x NFS/UDP; unlink ~equal.";
  record
    {
      fo_name = "fig8";
      fo_headers = [ "create_s"; "read_s"; "unlink_s" ];
      fo_rows =
        results_of measured (fun p ->
            [ p.Sprite_lfs.create_s; p.Sprite_lfs.read_s; p.Sprite_lfs.unlink_s ]);
      fo_regs = regs_of measured;
    }

(* --- Figure 9: Sprite LFS large-file benchmark --- *)

let fig9 () =
  hr ();
  print_endline "Figure 9: Sprite LFS large-file benchmark (40,000 KB, 8 KB chunks), seconds\n";
  let measured = per_stack ~fig:"fig9" Sprite_lfs.run_large in
  let rows =
    List.map
      (fun (s, p, _) ->
        [
          Stacks.stack_name s;
          Report.f1 p.Sprite_lfs.seq_write_s;
          Report.f1 p.Sprite_lfs.seq_read_s;
          Report.f1 p.Sprite_lfs.rand_write_s;
          Report.f1 p.Sprite_lfs.rand_read_s;
          Report.f1 p.Sprite_lfs.seq_read2_s;
        ])
      measured
  in
  print_endline
    (Report.table ~title:""
       ~headers:[ "File System"; "seq write"; "seq read"; "rand write"; "rand read"; "seq read" ]
       rows);
  print_endline
    "Paper's shape: SFS +44% on seq write and +145% on seq read vs NFS/UDP;\nrandom phases dominated by the disk and roughly equal.";
  record
    {
      fo_name = "fig9";
      fo_headers = [ "seq_write_s"; "seq_read_s"; "rand_write_s"; "rand_read_s"; "seq_read2_s" ];
      fo_rows =
        results_of measured (fun p ->
            [
              p.Sprite_lfs.seq_write_s; p.Sprite_lfs.seq_read_s; p.Sprite_lfs.rand_write_s;
              p.Sprite_lfs.rand_read_s; p.Sprite_lfs.seq_read2_s;
            ]);
      fo_regs = regs_of measured;
    }

(* --- Pipeline: throughput vs RPC window (DESIGN.md §11) --- *)

let pipeline () =
  hr ();
  print_endline "Pipeline: SFS sequential-read throughput vs RPC window";
  print_endline
    "(64 MB in 8 KB chunks, server cache pre-warmed; window=1 is the fully\n\
    \ serial lockstep client, window=16 with readahead is the default stack)\n";
  let params =
    { Sfs_nfs.Diskmodel.default_params with Sfs_nfs.Diskmodel.cache_blocks = 16384 }
  in
  let sweep = [ 1; 4; 16 ] in
  let measured =
    List.map
      (fun window ->
        let readahead = if window > 1 then window else 0 in
        let w =
          Stacks.make ~server_disk_params:params ~rpc_window:window ~readahead Stacks.Sfs
        in
        let thr = Microbench.throughput_mb_s w in
        (window, thr, (Printf.sprintf "pipeline/window-%d" window, w.Stacks.obs)))
      sweep
  in
  let serial =
    match measured with (1, thr, _) :: _ -> thr | _ -> assert false
  in
  let rows =
    List.map
      (fun (window, thr, _) ->
        [
          (if window = 1 then "SFS window=1 (serial)"
           else Printf.sprintf "SFS window=%d readahead=%d" window window);
          Report.f1 thr;
          Printf.sprintf "%.2fx" (thr /. serial);
        ])
      measured
  in
  print_endline
    (Report.table ~title:"" ~headers:[ "Configuration"; "Throughput (MB/s)"; "vs serial" ] rows);
  print_endline
    "The windowed dispatcher overlaps round trips until a resource saturates:\n\
     for encrypting SFS the server's per-reply seal, for the others the reply\n\
     direction of the wire (see mux.server_us / mux.wire_us).";
  record
    {
      fo_name = "pipeline";
      fo_headers = [ "throughput_mb_s" ];
      fo_rows =
        List.map
          (fun (window, thr, _) -> (Printf.sprintf "SFS window=%d" window, [ thr ]))
          measured;
      fo_regs = List.map (fun (_, _, reg) -> reg) measured;
    }

(* --- In-text ablations (sections 4.3, 4.4) --- *)

let ablations () =
  hr ();
  print_endline "Ablations (in-text numbers from sections 4.3 and 4.4)\n";
  (* MAB: SFS with/without enhanced caching, with/without encryption. *)
  let measured =
    per_stack ~stacks:[ Stacks.Sfs; Stacks.Sfs_nocache; Stacks.Sfs_noenc; Stacks.Nfs_udp ]
      ~fig:"ablations/mab"
      (fun w -> Mab.total (Mab.run w))
  in
  let sfs, nocache, noenc, udp =
    match List.map (fun (_, v, _) -> v) measured with
    | [ a; b; c; d ] -> (a, b, c, d)
    | _ -> assert false
  in
  print_endline
    (Report.table ~title:"MAB total (s)"
       ~headers:[ "Configuration"; "Measured"; "Paper" ]
       [
         [ "SFS"; Report.f1 sfs; "5.9" ];
         [ "SFS w/o enhanced caching"; Report.f1 nocache; "6.6" ];
         [ "SFS w/o encryption"; Report.f1 noenc; "5.7 (0.2 faster)" ];
         [ "NFS 3 (UDP)"; Report.f1 udp; "5.3" ];
       ]);
  record
    {
      fo_name = "ablations-mab";
      fo_headers = [ "total_s" ];
      fo_rows = results_of measured (fun v -> [ v ]);
      fo_regs = regs_of measured;
    };
  (* LFS small-file create phase without attribute caching. *)
  let c_measured =
    per_stack ~stacks:[ Stacks.Sfs; Stacks.Sfs_nocache; Stacks.Nfs_udp ]
      ~fig:"ablations/lfs-create"
      (fun w -> (Sprite_lfs.run_small w).Sprite_lfs.create_s)
  in
  let c_sfs, c_nocache, c_udp =
    match List.map (fun (_, v, _) -> v) c_measured with
    | [ a; b; c ] -> (a, b, c)
    | _ -> assert false
  in
  print_endline
    (Report.table ~title:"LFS small-file create phase (s)"
       ~headers:[ "Configuration"; "Measured"; "Paper" ]
       [
         [ "SFS"; Report.f1 c_sfs; "~= NFS/UDP" ];
         [ "SFS w/o enhanced caching"; Report.f1 c_nocache; "+1 s" ];
         [ "NFS 3 (UDP)"; Report.f1 c_udp; "baseline" ];
       ]);
  record
    {
      fo_name = "ablations-lfs-create";
      fo_headers = [ "create_s" ];
      fo_rows = results_of c_measured (fun v -> [ v ]);
      fo_regs = regs_of c_measured;
    };
  (* Read-only dialect: serving cost is independent of client count.
     Real CPU seconds — excluded from the deterministic outputs. *)
  let ro_cost clients =
    let clock = Sfs_net.Simclock.create () in
    let net = Sfs_net.Simnet.create clock in
    let _host = Sfs_net.Simnet.add_host net "ca.example.com" in
    let rng = Sfs_crypto.Prng.create [ "ablation-ro" ] in
    let key = Sfs_crypto.Rabin.generate ~bits:512 rng in
    let now () = Sfs_nfs.Nfs_types.time_of_us (Sfs_net.Simclock.now_us clock) in
    let fs =
      Sfs_core.Keymgmt.build_ca_fs ~now
        (List.init 20 (fun i ->
             (Printf.sprintf "site%02d" i, Sfs_core.Pathname.v ~location:"x" ~hostid:(String.make 20 (Char.chr i)))))
    in
    (* Count private-key operations: one signature per snapshot,
       regardless of how many clients fetch. *)
    let t0 = Sys.time () in
    let snap = Sfs_core.Readonly.snapshot ~key ~now_s:0 fs in
    let sign_time = Sys.time () -. t0 in
    let store = Sfs_core.Readonly.store ~clock snap in
    let t1 = Sys.time () in
    for _ = 1 to clients do
      ignore (Sfs_core.Readonly.serve store
                (Sfs_proto.Readonly_proto.ro_request_to_string Sfs_proto.Readonly_proto.Get_fsinfo))
    done;
    let serve_time = Sys.time () -. t1 in
    (sign_time, serve_time)
  in
  let sign1, serve1 = ro_cost 1 in
  let sign100, serve100 = ro_cost 100 in
  print_endline
    (Report.table ~title:"Read-only dialect: real CPU seconds of crypto at the server"
       ~headers:[ "Clients"; "signing (once per snapshot)"; "serving (all clients)" ]
       [
         [ "1"; Printf.sprintf "%.4f" sign1; Printf.sprintf "%.5f" serve1 ];
         [ "100"; Printf.sprintf "%.4f" sign100; Printf.sprintf "%.5f" serve100 ];
       ]);
  print_endline
    "(Signing cost is per snapshot; serving needs no private-key operations at all,\n\
     so cryptographic cost is proportional to file system size and change rate,\n\
     not client count — section 2.4.)"

(* --- Fault injection: the stacks on a lossy network (DESIGN.md s10) --- *)

let fault_read_mb = 2
let fault_chunk = 8192

let faults () =
  hr ();
  print_endline "Fault injection: recovery behavior under deterministic network faults";
  print_endline "(seeded plans; same seed gives a byte-identical fault/recovery ledger)\n";
  let module Memfs = Sfs_nfs.Memfs in
  let module Diskmodel = Sfs_nfs.Diskmodel in
  let module Simos = Sfs_os.Simos in
  let module Simclock = Sfs_net.Simclock in
  let module Vfs = Sfs_core.Vfs in
  let module Fault = Sfs_fault.Fault in
  (* Seed a file directly in the server file system and pre-warm the
     server disk cache, as the Figure 5 throughput benchmark does. *)
  let seed (w : Stacks.world) (name : string) (mb : int) : int =
    let bytes = mb * 1024 * 1024 in
    let root_cred = Simos.cred_of_user Simos.root_user in
    let fail e = failwith (Sfs_nfs.Nfs_types.status_to_string e) in
    let fid, _ =
      match Memfs.create_file w.Stacks.server_fs root_cred ~dir:Memfs.root_id name ~mode:0o666 with
      | Ok v -> v
      | Error e -> fail e
    in
    (match
       Memfs.setattr w.Stacks.server_fs root_cred fid
         { Sfs_nfs.Nfs_types.sattr_empty with Sfs_nfs.Nfs_types.set_size = Some bytes }
     with
    | Ok _ -> ()
    | Error e -> fail e);
    for b = 0 to (bytes / Sfs_nfs.Nfs_types.block_size) - 1 do
      Diskmodel.write w.Stacks.server_disk ~fileid:fid ~off:(b * Sfs_nfs.Nfs_types.block_size)
        ~bytes:Sfs_nfs.Nfs_types.block_size ~stable:false
    done;
    bytes
  in
  let read_seq (w : Stacks.world) (path : string) (bytes : int) : float =
    let ops, fh =
      match Vfs.resolve w.Stacks.vfs w.Stacks.cred path with
      | Ok v -> v
      | Error e -> failwith (Vfs.verror_to_string e)
    in
    Stacks.timed w (fun () ->
        let off = ref 0 in
        while !off < bytes do
          (match ops.Sfs_nfs.Fs_intf.fs_read w.Stacks.cred fh ~off:!off ~count:fault_chunk with
          | Ok _ -> ()
          | Error e -> failwith (Sfs_nfs.Nfs_types.status_to_string e));
          off := !off + fault_chunk
        done)
  in
  (* NFS 3 (UDP) sequential 8 KB reads: a clean network vs 1% drop.
     The gap is pure retransmission cost — timeouts, backoff, and the
     duplicate request cache absorbing re-executions. *)
  let nfs_row (spec : Fault.spec) (name : string) =
    let params = { Diskmodel.default_params with Diskmodel.cache_blocks = 4096 } in
    let w = Stacks.make ~server_disk_params:params Stacks.Nfs_udp in
    let bytes = seed w "fault-2mb" fault_read_mb in
    Stacks.flush_caches w;
    Stacks.arm_faults w spec;
    let s = read_seq w "/mnt/fault-2mb" bytes in
    (s, (Printf.sprintf "faults/%s" name, w.Stacks.obs))
  in
  let clean_s, r1 = nfs_row (Fault.none ~seed:"bench-clean") "nfs-read-8k-clean" in
  let drop_s, r2 = nfs_row (Fault.make ~seed:"bench-drop1" ~drop_pm:100 ()) "nfs-read-8k-drop1" in
  (* SFS runs the full MAB under 1% drop plus a heavy-tailed delay: any
     loss poisons the ARC4 streams, so recovery means reconnection and
     re-authentication, not just retransmission. *)
  let mab_s, r3 =
    let spec =
      Fault.make ~seed:"bench-mab" ~drop_pm:100 ~delay_pm:500 ~delay_mean_us:2_000
        ~delay_p99_us:50_000 ()
    in
    let w = Stacks.make ~fault:spec Stacks.Sfs in
    (Mab.total (Mab.run w), ("faults/sfs-mab-drop1-delay50", w.Stacks.obs))
  in
  (* Time to establish a mount through a 300 ms network partition: the
     client keeps redialing on a 50 ms cadence until the partition
     heals and key negotiation completes. *)
  let heal_s, r4 =
    let w = Stacks.make Stacks.Sfs in
    let client = Option.get w.Stacks.sfs_client in
    let server = Option.get w.Stacks.sfs_server in
    let path = Sfs_core.Server.self_path server in
    (match Sfs_core.Client.find_mount client path with
    | Some m -> Sfs_core.Client.unmount client m
    | None -> ());
    let now = Simclock.now_us w.Stacks.clock in
    let spec =
      Fault.make ~seed:"bench-partition"
        ~partitions:
          [
            {
              Fault.pa = Stacks.client_host;
              pb = Stacks.server_location;
              p_from_us = now;
              p_until_us = now +. 300_000.0;
            };
          ]
        ()
    in
    Stacks.arm_faults w spec;
    let s =
      Stacks.timed w (fun () ->
          let rec go () =
            match Sfs_core.Client.mount client path with
            | Ok _ -> ()
            | Error _ ->
                Simclock.advance w.Stacks.clock 50_000.0;
                go ()
          in
          go ())
    in
    (s, ("faults/negotiate-partition-heal", w.Stacks.obs))
  in
  let f3 v = Printf.sprintf "%.3f" v in
  print_endline
    (Report.table ~title:"Recovery under injected faults (simulated seconds)"
       ~headers:[ "Scenario"; "Seconds" ]
       [
         [ "nfs-read-8k-clean   (NFS/UDP, 2 MB in 8 KB reads)"; f3 clean_s ];
         [ "nfs-read-8k-drop1   (same, 1% message drop)"; f3 drop_s ];
         [ "sfs-mab-drop1-delay50 (SFS MAB, 1% drop + 50ms p99 delay)"; f3 mab_s ];
         [ "negotiate-partition-heal (mount through 300ms partition)"; f3 heal_s ];
       ]);
  record
    {
      fo_name = "faults";
      fo_headers = [ "seconds" ];
      fo_rows =
        [
          ("nfs-read-8k-clean", [ clean_s ]);
          ("nfs-read-8k-drop1", [ drop_s ]);
          ("sfs-mab-drop1-delay50", [ mab_s ]);
          ("negotiate-partition-heal", [ heal_s ]);
        ];
      fo_regs = [ r1; r2; r3; r4 ];
    }

(* --- Scale: fleet throughput/latency vs concurrent client count --- *)

let scale () =
  hr ();
  print_endline "Scale: fleet throughput and op latency vs concurrent clients";
  print_endline
    "(discrete-event fleet: 4 sfssd servers behind a 4-shard authserv ring,\n\
    \ connection admission 4000/server; serial = rpc window 1, pipelined =\n\
    \ window 16 with readahead; p50/p99 from merged quantile sketches)\n";
  let counts = [ 1; 10; 100; 1_000; 10_000 ] in
  let run_one ~label ~window n =
    let t0 = Sys.time () in
    let cfg =
      {
        Fleet.default with
        Fleet.clients = n;
        servers = 4;
        auth_shards = 4;
        user_pool = 16;
        window;
        readahead = (if window > 1 then window else 0);
        admit_per_server = Some 4000;
        hot_write_every = 500;
        seed = "scale";
      }
    in
    let r = Fleet.run cfg in
    let wall = Sys.time () -. t0 in
    let thr = Fleet.throughput_ops_s r in
    let p50 = Sfs_obs.Sketch.quantile r.Fleet.r_op_lat 0.5 in
    let p99 = Sfs_obs.Sketch.quantile r.Fleet.r_op_lat 0.99 in
    Printf.printf "  scale %-9s n=%5d %10.1f ops/s   p50 %7d us   p99 %7d us   (%.1f s wall)\n"
      label n thr p50 p99 wall;
    (Printf.sprintf "%s/%d" label n, r)
  in
  let measured =
    List.concat_map
      (fun n -> [ run_one ~label:"serial" ~window:1 n; run_one ~label:"pipelined" ~window:16 n ])
      counts
  in
  (* Sanity: the counters must balance at every size, or the figure is
     reporting numbers from a fan-in machine that lost state. *)
  List.iter
    (fun (lbl, r) ->
      List.iter
        (fun (name, ok) -> if not ok then failwith (Printf.sprintf "scale %s: %s failed" lbl name))
        (Fleet.reconcile r))
    measured;
  print_endline
    "\nThroughput climbs until the farm's CPUs saturate; past that, added\n\
     clients only deepen the run queues and p99 inflates.  Wall-clock cost\n\
     is real CPU time and deliberately excluded from the recorded rows\n\
     (see EXPERIMENTS.md for the measured figures).";
  record
    {
      fo_name = "scale";
      fo_headers = [ "throughput_ops_s"; "p50_us"; "p99_us"; "sim_s" ];
      fo_rows =
        List.map
          (fun (lbl, r) ->
            ( lbl,
              [
                Fleet.throughput_ops_s r;
                float_of_int (Sfs_obs.Sketch.quantile r.Fleet.r_op_lat 0.5);
                float_of_int (Sfs_obs.Sketch.quantile r.Fleet.r_op_lat 0.99);
                r.Fleet.r_last_ready_us /. 1_000_000.0;
              ] ))
          measured;
      fo_regs = List.map (fun (lbl, r) -> ("scale/" ^ lbl, r.Fleet.r_obs)) measured;
    }

(* --- Flash crowd: the read-only dialect as a CDN tier --- *)

let flashcrowd () =
  hr ();
  print_endline "Flash crowd: read-only replica tier vs read-write SFS at 10k clients";
  print_endline
    "(same Zipf-popular tree on both arms: 16 dirs x 64 files x 8 KB, theta 1.0,\n\
    \ 8 reads per client, the whole crowd arriving on a 2 s accelerating ramp;\n\
    \ rw = one sfssd server doing key negotiation + encrypted channels; ro-N =\n\
    \ one signing publisher fanned out to N untrusted mirrors, clients verify\n\
    \ the hash chain through a per-client cache and fail over on refusal\n\
    \ to a mirror drawn from the client's own host name)\n";
  let clients = 10_000 in
  let dirs = 16 and files_per_dir = 64 and file_bytes = 8192 in
  let theta = 1.0 and reads = 8 in
  let ramp_us = 2_000_000.0 in
  let row_of ~label ~thr ~lat ~span_us ~wall =
    Printf.printf "  flashcrowd %-9s n=%5d %10.1f reads/s  p50 %7d us   p99 %7d us   (%.1f s wall)\n"
      label clients thr (Sfs_obs.Sketch.quantile lat 0.5) (Sfs_obs.Sketch.quantile lat 0.99) wall;
    ( Printf.sprintf "%s/%d" label clients,
      [
        thr;
        float_of_int (Sfs_obs.Sketch.quantile lat 0.5);
        float_of_int (Sfs_obs.Sketch.quantile lat 0.99);
        span_us /. 1_000_000.0;
      ] )
  in
  (* Read-write arm: the full SFS stack, one server.  No admission cap —
     every client gets in and the crowd serializes on the server's run
     queue, which is exactly the paper's motivation for the read-only
     dialect: the write path's per-client crypto cost caps the farm. *)
  let rw_label = "rw-sfs" in
  let rw_row, rw_obs =
    let t0 = Sys.time () in
    let cfg =
      {
        Fleet.default with
        Fleet.clients;
        servers = 1;
        auth_shards = 1;
        user_pool = 16;
        window = 1;
        readahead = 0;
        ops_per_client = reads;
        admit_per_server = None;
        seed = "flashcrowd-rw";
        workload = Fleet.Zipf { dirs; files_per_dir; file_bytes; theta };
        arrival = Fleet.Ramp ramp_us;
      }
    in
    let r = Fleet.run cfg in
    List.iter
      (fun (name, ok) ->
        if not ok then failwith (Printf.sprintf "flashcrowd rw-sfs: %s failed" name))
      (Fleet.reconcile r);
    ( row_of ~label:rw_label ~thr:(Fleet.throughput_ops_s r) ~lat:r.Fleet.r_op_lat
        ~span_us:r.Fleet.r_last_ready_us ~wall:(Sys.time () -. t0),
      r.Fleet.r_obs )
  in
  let ro_arm n =
    let t0 = Sys.time () in
    let cfg =
      {
        Flashcrowd.default with
        Flashcrowd.clients;
        replicas = n;
        dirs;
        files_per_dir;
        file_bytes;
        theta;
        reads_per_client = reads;
        vcache_objs = 256;
        admit_per_mirror = Some 2048;
        ramp_us;
        seed = "flashcrowd-ro";
      }
    in
    let r = Flashcrowd.run cfg in
    List.iter
      (fun (name, ok) ->
        if not ok then failwith (Printf.sprintf "flashcrowd ro-%d: %s failed" n name))
      (Flashcrowd.reconcile r);
    let thr = Flashcrowd.throughput_reads_s r in
    ( row_of ~label:(Printf.sprintf "ro-%d" n) ~thr ~lat:r.Flashcrowd.r_read_lat
        ~span_us:r.Flashcrowd.r_last_ready_us
        ~wall:(Sys.time () -. t0),
      r.Flashcrowd.r_obs,
      thr )
  in
  let ro1_row, ro1_obs, ro1_thr = ro_arm 1 in
  let ro4_row, ro4_obs, _ = ro_arm 4 in
  let ro16_row, ro16_obs, ro16_thr = ro_arm 16 in
  (* The claim under test: serving needs no private key and no per-client
     crypto, so capacity scales with mirror count.  Anything under 3x
     from 1 -> 16 mirrors means the tier stopped being the bottleneck
     model this figure exists to show. *)
  if ro16_thr < 3.0 *. ro1_thr then
    failwith
      (Printf.sprintf "flashcrowd: ro-16 throughput %.1f < 3x ro-1 %.1f" ro16_thr ro1_thr);
  print_endline
    "\nThe read-write arm caps out on the single server's crypto + run queue;\n\
     mirrors add capacity linearly until the ramp, not the tier, bounds the\n\
     crowd.  Client-side verification caching keeps the per-read hash cost\n\
     amortized (see the ro.verify.hit counters in the recorded registries).";
  record
    {
      fo_name = "flashcrowd";
      fo_headers = [ "throughput_ops_s"; "p50_us"; "p99_us"; "sim_s" ];
      fo_rows = [ rw_row; ro1_row; ro4_row; ro16_row ];
      fo_regs =
        [
          ("flashcrowd/rw-sfs", rw_obs);
          ("flashcrowd/ro-1", ro1_obs);
          ("flashcrowd/ro-4", ro4_obs);
          ("flashcrowd/ro-16", ro16_obs);
        ];
    }

(* --- Real-time crypto micro-benchmarks (process CPU time) --- *)

let crypto () =
  hr ();
  print_endline "Crypto substrate micro-benchmarks (process CPU time)\n";
  let rng = Sfs_crypto.Prng.create [ "bench-crypto" ] in
  let key512 = Sfs_crypto.Rabin.generate ~bits:512 rng in
  let key1024 = Sfs_crypto.Rabin.generate ~bits:1024 rng in
  let block64 = String.make 64 'b' in
  let block8k = String.make 8192 'b' in
  let mac_key = String.make 32 'm' in
  let signature = Sfs_crypto.Rabin.sign key1024 "benchmark message" in
  let arc4 = Sfs_crypto.Arc4.create (String.make 20 'k') in
  (* Deterministic full-width 512-bit operands for the bare-modexp case. *)
  let modexp_operand c = Sfs_bignum.Nat.of_bytes_be (String.make 64 c) in
  let seal_chan =
    Sfs_proto.Channel.create ~send_key:(String.make 20 'x') ~recv_key:(String.make 20 'y') ()
  in
  (* Opening needs a lock-step pair: each iteration seals on one end and
     opens on the other, so what the harness can measure directly is the
     seal+open round trip.  The open-only cost is reported as the derived
     difference [seal+open-8k] - [seal-8k] below; benchmarking "open-8k"
     alone is impossible (a second open of the same frame desyncs the
     ARC4 streams) and the old pair test mislabelled the sum as open. *)
  let pair_a =
    Sfs_proto.Channel.create ~send_key:(String.make 20 'p') ~recv_key:(String.make 20 'q') ()
  in
  let pair_b =
    Sfs_proto.Channel.create ~send_key:(String.make 20 'q') ~recv_key:(String.make 20 'p') ()
  in
  (* The 64-byte cases expose per-message fixed costs (key schedules,
     staging allocations) the 8 KB cases amortize away. *)
  let tests : (string * (unit -> unit)) list =
    [
      ("sha1-64", fun () -> ignore (Sfs_crypto.Sha1.digest block64));
      ("sha1-8k", fun () -> ignore (Sfs_crypto.Sha1.digest block8k));
      ("hmac-64", fun () -> ignore (Sfs_crypto.Mac.of_message ~key:mac_key block64));
      ("hmac-sha1-8k", fun () -> ignore (Sfs_crypto.Mac.of_message ~key:mac_key block8k));
      ("arc4-64", fun () -> ignore (Sfs_crypto.Arc4.encrypt arc4 block64));
      ("arc4-8k", fun () -> ignore (Sfs_crypto.Arc4.encrypt arc4 block8k));
      ("seal-8k", fun () -> ignore (Sfs_proto.Channel.seal seal_chan block8k));
      ( "seal+open-8k",
        fun () -> ignore (Sfs_proto.Channel.open_ pair_b (Sfs_proto.Channel.seal pair_a block8k)) );
      ( "rabin-1024-verify",
        fun () ->
          ignore (Sfs_crypto.Rabin.verify key1024.Sfs_crypto.Rabin.pub "benchmark message" signature)
      );
      ("rabin-1024-sign", fun () -> ignore (Sfs_crypto.Rabin.sign key1024 "benchmark message"));
      ( "rabin-512-decrypt",
        let c = Sfs_crypto.Rabin.encrypt key512.Sfs_crypto.Rabin.pub rng "msg" in
        fun () -> ignore (Sfs_crypto.Rabin.decrypt key512 c) );
      ( "eksblowfish-cost-6",
        fun () -> ignore (Sfs_crypto.Eksblowfish.hash ~cost:6 ~salt:(String.make 16 's') "pw") );
      ( "srp-client-full",
        fun () ->
          let grp = Sfs_crypto.Srp.default_group in
          ignore (Sfs_crypto.Srp.client_start grp rng ~user:"u" ~password:"p") );
      (* Montgomery modexp at the Rabin working width: the primitive
         every signature, verification and SRP exchange bottoms out in. *)
      ( "modexp-512",
        let b = modexp_operand 'B' and e = modexp_operand 'E' in
        (* 'M' = 0x4D, so the low byte is odd — Montgomery form applies
           (an even modulus would fall back to the reference path). *)
        let m = modexp_operand 'M' in
        fun () -> ignore (Sfs_bignum.Nat.modexp ~base:b ~exp:e ~modulus:m) );
      (* Long division at the width Rabin reduces a product by its
         modulus: the kernel under every [Nat.rem]. *)
      ( "nat-divmod-1024/512",
        let a = Sfs_bignum.Nat.of_bytes_be (String.make 128 'A') and b = modexp_operand 'D' in
        fun () -> ignore (Sfs_bignum.Nat.divmod a b) );
      (* One 512-bit key from a fixed seed, so every op runs the same
         prime search: trial division, Miller-Rabin, the modulus. *)
      ( "rabin-512-generate",
        fun () ->
          ignore (Sfs_crypto.Rabin.generate ~bits:512 (Sfs_crypto.Prng.create [ "bench-rabin-generate" ])) );
      ("rabin-sign", fun () -> ignore (Sfs_crypto.Rabin.sign key512 "benchmark message"));
      ( "rabin-verify",
        let s = Sfs_crypto.Rabin.sign key512 "benchmark message" in
        fun () -> ignore (Sfs_crypto.Rabin.verify key512.Sfs_crypto.Rabin.pub "benchmark message" s)
      );
      (* One full password exchange: both sides' ephemerals, both
         finishes, proof check — the paper's user-authentication cost. *)
      ( "srp-roundtrip",
        let grp = Sfs_crypto.Srp.default_group in
        let v = Sfs_crypto.Srp.make_verifier ~cost:4 grp rng ~user:"u" ~password:"p" in
        fun () ->
          let c = Sfs_crypto.Srp.client_start grp rng ~user:"u" ~password:"p" in
          let s = Sfs_crypto.Srp.server_start grp rng v in
          let cs =
            Sfs_crypto.Srp.client_finish c ~salt:v.Sfs_crypto.Srp.salt ~cost:v.Sfs_crypto.Srp.cost
              ~b_pub:(Sfs_crypto.Srp.server_pub s)
          in
          let ss = Sfs_crypto.Srp.server_finish s ~a_pub:(Sfs_crypto.Srp.client_pub c) in
          ignore
            (match (cs, ss) with
            | Some cs, Some ss ->
                Sfs_crypto.Srp.check_client_proof ss ~proof:cs.Sfs_crypto.Srp.proof
            | _ -> false) );
    ]
  in
  (* Phase 1 — the deterministic work proxy: bytes allocated per op.
     The crypto substrate is pure OCaml, so algorithmic regressions
     (losing Montgomery form, a dropped Karatsuba threshold, a copying
     read path) all surface as allocation growth, and unlike any clock
     the number is exactly reproducible run to run.  That is what lets
     benchdiff hold the crypto figure to a hard 10% per-case budget on
     shared hardware.  Fixed iteration counts, taken before any
     time-calibrated loop runs, keep the PRNG-consuming cases on the
     same draw sequence every run.  A one-off allocation of the process
     lands in whichever case happens to be running, so each case
     reports the minimum over three windows — as with CPU time below,
     interference only ever adds. *)
  let alloc_iters = 5 in
  (* Bytes allocated so far: minor-heap words plus words allocated
     directly in the major heap, less promoted words (counted once
     already).  Not [Gc.allocated_bytes]: on OCaml 5.1.1 the minor part
     of [Gc.counters] divides the uncollected minor heap by the word
     size a second time, so a window without a minor collection read
     words.  [Gc.minor_words] is exact, and so are [Gc.counters]'
     major and promoted parts. *)
  let allocated_bytes () =
    let _, promoted, major = Gc.counters () in
    (Gc.minor_words () +. major -. promoted) *. float_of_int (Sys.word_size / 8)
  in
  let alloc_rows =
    List.map
      (fun (name, f) ->
        let window () =
          let a0 = allocated_bytes () in
          for _ = 1 to alloc_iters do
            f ()
          done;
          (allocated_bytes () -. a0) /. float_of_int alloc_iters
        in
        let w1 = window () in
        let w2 = window () in
        (name, Float.min w1 (Float.min w2 (window ()))))
      tests
  in
  (* Phase 2 — process CPU time (Sys.time), not the wall clock:
     neighbor load and preemption move wall-clock numbers 20-40%
     between back-to-back runs here.  CPU time is better but still
     inherits hypervisor steal and frequency drift, so it is only a
     coarse backstop in benchdiff, not the 10% gate.  Each case is
     calibrated to a ~50 ms window, then measured as the per-op minimum
     over three such windows — interference only ever adds time, so the
     minimum is the stable estimator. *)
  let estimate (f : unit -> unit) =
    let window = 0.05 in
    let rec calibrate n =
      let t0 = Sys.time () in
      for _ = 1 to n do
        f ()
      done;
      if Sys.time () -. t0 >= window then n else calibrate (2 * n)
    in
    let n = calibrate 1 in
    let best = ref infinity in
    for _ = 1 to 3 do
      let t0 = Sys.time () in
      for _ = 1 to n do
        f ()
      done;
      let per = (Sys.time () -. t0) /. float_of_int n in
      if per < !best then best := per
    done;
    !best *. 1e9
  in
  let rows =
    List.map
      (fun (name, f) ->
        let ns = estimate f in
        let alloc = List.assoc name alloc_rows in
        Printf.printf "  crypto %-21s %12.1f ns/op %12.0f B/op\n" name ns alloc;
        (name, [ ns; alloc ]))
      tests
  in
  (* Derived open-only cost; see the pair-channel comment above.  As a
     regression assertion the derived value must stay the same order as
     seal (both are one ARC4 pass + one MAC over the frame) — a large
     asymmetry means the pair test regressed into measuring the sum. *)
  let find n i =
    match List.assoc_opt n rows with
    | Some vs -> ( match List.nth_opt vs i with Some v -> v | None -> nan)
    | None -> nan
  in
  let open_ns = find "seal+open-8k" 0 -. find "seal-8k" 0 in
  let open_alloc = find "seal+open-8k" 1 -. find "seal-8k" 1 in
  Printf.printf "  crypto %-21s %12.1f ns/op %12.0f B/op (derived: seal+open - seal)\n" "open-8k"
    open_ns open_alloc;
  let rows = rows @ [ ("open-8k", [ open_ns; open_alloc ]) ] in
  (* The "crypto" line's ns column is real CPU time, so the determinism
     check (make perf) excludes the line from the byte-identical
     comparison; benchdiff gates it as a trend instead — a hard 10%
     per-case budget on the deterministic alloc_b_per_op column, a
     coarse host-normalized backstop on ns_per_op. *)
  record
    { fo_name = "crypto"; fo_headers = [ "ns_per_op"; "alloc_b_per_op" ]; fo_rows = rows; fo_regs = [] };
  print_endline
    "\n(Section 3.1.3's claims to check: Rabin verification is much cheaper than\n\
     signing; ARC4 runs at stream-cipher speed; eksblowfish cost 6 is within an\n\
     order of magnitude of interactive use and scales by powers of two.)"

(* --- JSON output (stable key order, no dependencies) --- *)

let json_of_fig (fo : fig_out) : string =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "{\"figure\":\"%s\",\"headers\":[" (Obs.json_escape fo.fo_name));
  Buffer.add_string buf
    (String.concat "," (List.map (fun h -> Printf.sprintf "\"%s\"" (Obs.json_escape h)) fo.fo_headers));
  Buffer.add_string buf "],\"rows\":[";
  Buffer.add_string buf
    (String.concat ","
       (List.map
          (fun (label, values) ->
            Printf.sprintf "{\"system\":\"%s\",\"values\":[%s]}" (Obs.json_escape label)
              (String.concat "," (List.map (fun v -> Printf.sprintf "%.3f" v) values)))
          fo.fo_rows));
  Buffer.add_string buf "],\"counters\":{";
  Buffer.add_string buf
    (String.concat ","
       (List.map
          (fun (label, reg) ->
            let snap = Obs.snapshot reg in
            Printf.sprintf "\"%s\":{%s}" (Obs.json_escape label)
              (String.concat ","
                 (List.map
                    (fun (n, v) -> Printf.sprintf "\"%s\":%d" (Obs.json_escape n) v)
                    snap.Obs.snap_counters)))
          fo.fo_regs));
  Buffer.add_string buf "}";
  (* Critical-path profile (DESIGN.md §13): per-op-type segment
     breakdown and latency quantiles, present for any world that ran
     ops with capture enabled.  Deterministic, so the figure line stays
     byte-identical across same-seed runs. *)
  (match Sfs_obs.Trace.critical_path_json fo.fo_regs with
  | Some cp -> Buffer.add_string buf (",\"critical_path\":" ^ cp)
  | None -> ());
  Buffer.add_string buf "}";
  Buffer.contents buf

let write_file (path : string) (contents : string) : unit =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let append_results (path : string) : unit =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  List.iter (fun fo -> output_string oc (json_of_fig fo ^ "\n")) !figures;
  close_out oc

(* --- Entry point --- *)

let () =
  let argv = List.tl (Array.to_list Sys.argv) in
  let trace_file = ref None in
  let trace_ops_file = ref None in
  let metrics_file = ref None in
  let json_stdout = ref false in
  let results_file = ref (Some "BENCH_results.json") in
  let rec parse acc = function
    | [] -> List.rev acc
    | "--trace" :: f :: rest ->
        trace_file := Some f;
        parse acc rest
    | "--trace-ops" :: f :: rest ->
        trace_ops_file := Some f;
        parse acc rest
    | "--metrics" :: f :: rest ->
        metrics_file := Some f;
        parse acc rest
    | "--json" :: rest ->
        json_stdout := true;
        parse acc rest
    | "--results" :: f :: rest ->
        results_file := Some f;
        parse acc rest
    | "--no-results" :: rest ->
        results_file := None;
        parse acc rest
    | a :: rest -> parse (a :: acc) rest
  in
  let args = parse [] argv in
  let all = args = [] in
  let want name = all || List.mem name args in
  if want "fig5" then fig5 ();
  if want "fig6" then fig6 ();
  if want "fig7" then fig7 ();
  if want "fig8" then fig8 ();
  if want "fig9" then fig9 ();
  if want "pipeline" then pipeline ();
  if want "ablations" then ablations ();
  if want "faults" then faults ();
  if want "scale" then scale ();
  if want "flashcrowd" then flashcrowd ();
  if want "crypto" then crypto ();
  (match !trace_file with
  | Some path ->
      write_file path (Obs.chrome_trace (all_regs ()));
      Printf.printf "Wrote Chrome trace to %s (load in Perfetto or about:tracing).\n" path
  | None -> ());
  (match !trace_ops_file with
  | Some path ->
      write_file path (Obs.chrome_trace ~ops_only:true (all_regs ()));
      Printf.printf
        "Wrote causally-linked op trace to %s (flow arrows connect client ops to server spans).\n"
        path
  | None -> ());
  (match !metrics_file with
  | Some path ->
      write_file path (Obs.jsonl_of (all_regs ()));
      Printf.printf "Wrote JSONL metrics to %s.\n" path
  | None -> ());
  (match !results_file with
  | Some path when !figures <> [] ->
      append_results path;
      Printf.printf "Appended %d figure result(s) to %s.\n" (List.length !figures) path
  | _ -> ());
  if !json_stdout then begin
    print_endline
      ("{\"results\":[" ^ String.concat "," (List.map json_of_fig !figures) ^ "]}")
  end;
  hr ();
  print_endline "Done.  See EXPERIMENTS.md for the paper-vs-measured discussion."
