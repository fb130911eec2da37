(* perfbench: the real-time benchmark.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
     perfbench.exe --workload NAME --seed N --digest
     perfbench.exe --list-metrics

   With --trace 0 it reports the end-to-end metrics of an untraced run;
   with --trace 1, the per-layer metrics: an untraced run of half the
   length (the wall-clock figures and the tracing overhead's base), then
   a traced one of the other half.  The last
   line of standard output is one JSON object.  --digest prints the
   deterministic figures of one round, for the same-seed self-check.
   LAYERS.md describes every workload and metric. *)

module W = Workloads
module Diskmodel = Sfs_nfs.Diskmodel

let workloads : (string * (?tr:Trace.t -> seed:string -> unit -> W.instance)) list =
  [
    ("read-seq", W.Read_seq.setup);
    ("meta-mix", W.Meta_mix.setup);
    ("crowd-rw", W.Crowd_rw.setup);
    ("crowd-ro", W.Crowd_ro.setup);
  ]

(* Only figures that repeat within a tenth from run to run are bounded
   end-to-end metrics; the wall-clock ones are per-layer (LAYERS.md). *)
let end_to_end : (string * string) list =
  [ ("alloc_b_per_op", "B"); ("peak_heap_mb", "MB"); ("setup_s", "s") ]

let per_layer : (string * string) list =
  [
    ("wall.ops_per_s", "1/s");
    ("wall.read_mb_s", "MB/s");
    ("wall.op_p50_us", "us");
    ("wall.op_p99_us", "us");
    ("wall.cpu_us_per_op", "us");
    ("client_side.us_per_op", "us");
    ("client_side.alloc_b_per_op", "B");
    ("cachefs.rpc_free_op_p50_us", "us");
    ("cachefs.read_hit_ratio", "ratio");
    ("cachefs.meta_hit_ratio", "ratio");
    ("cachefs.invalidations", "count");
    ("simnet.rpcs_per_op", "rpc/op");
    ("simnet.wire_bytes_per_op", "B/op");
    ("rpc_mux.submits", "count");
    ("rpc_mux.stalls", "count");
    ("channel.sealed_bytes_per_op", "B/op");
    ("channel.seal_open_8k_us", "us");
    ("channel.seal_open_small_us", "us");
    ("channel.seal_open_reply_us", "us");
    ("channel.est_share", "ratio");
    ("server.us_per_rpc", "us");
    ("server.alloc_b_per_rpc", "B");
    ("server.self_us_per_rpc", "us");
    ("nfs_server.calls_per_op", "call/op");
    ("lease.grants_per_op", "grant/op");
    ("memfs_ops.read_us_per_call", "us");
    ("memfs_ops.meta_us_per_call", "us");
    ("memfs_ops.write_us_per_call", "us");
    ("memfs_ops.alloc_b_per_call", "B");
    ("diskmodel.hit_ratio", "ratio");
    ("client.mount_us", "us");
    ("client.authenticate_us", "us");
    ("authserv.validate_us", "us");
    ("agent.signatures", "count");
    ("server.connections", "count");
    ("fleet.mount_retries", "count");
    ("net.admission.refused", "count");
    ("engine.events", "count");
    ("engine.us_per_event", "us");
    ("engine.alloc_b_per_event", "B");
    ("engine.schedule_run_us", "us");
    ("engine.est_share", "ratio");
    ("vcache.hit_ratio", "ratio");
    ("vcache.evictions", "count");
    ("vcache.find_add_us", "us");
    ("vcache.est_share", "ratio");
    ("readonly.verified_bytes_per_read", "B/op");
    ("readonly.sha1_8k_us", "us");
    ("readonly.sha1_est_share", "ratio");
    ("replica.objects_served_per_read", "obj/op");
    ("flashcrowd.failovers", "count");
    ("flashcrowd.retries", "count");
    ("gc.minor_per_kop", "1/kop");
    ("gc.major_per_kop", "1/kop");
    ("trace.ops_per_s_traced", "1/s");
    ("trace.overhead_ops_per_s", "1/s");
    ("trace.spans", "count");
  ]

(* The obs counters the per-layer metrics read. *)
let counter_names =
  [
    "cache.read.hit";
    "cache.read.miss";
    "cache.attr.hit";
    "cache.attr.miss";
    "cache.name.hit";
    "cache.name.miss";
    "cache.neg.hit";
    "cache.access.hit";
    "cache.access.miss";
    "cache.invalidations";
    "mux.submit";
    "mux.stall";
    "channel.client.sent";
    "channel.client.bytes_out";
    "channel.server.sent";
    "channel.server.bytes_out";
    "nfs.calls";
    "lease.grants";
    "agent.signatures";
    "server.connections";
    "net.admission.refused";
    "ro.verify.hit";
    "ro.verify.miss";
    "ro.verify.bytes";
    "ro.vcache.evict";
    "ro.serve.objs";
  ]

(* --- The timed phase --- *)

type timing = {
  wall_ns : float;
  cpu_ns : float;
  rate : float array; (* per round: ops per wall second, printed *)
  first_alloc : float; (* bytes allocated by round 0 *)
  first_ops : int;
  minor : int; (* collections during the phase *)
  major : int;
}

(* Run whole rounds until [seconds] have passed.  [after_first] runs
   between round 0 and round 1, outside the allocation window. *)
let timed ?(after_first = ignore) (inst : W.instance) (c : W.ctx) ~(seconds : float) : timing =
  let mi0, ma0 = Meter.collections () in
  let rate = Meter.Samples.create () in
  let cpu0 = Meter.cpu_ns () and t0 = Meter.mono_ns () in
  let deadline = t0 +. (seconds *. 1e9) in
  let rounds = ref 0 and first_alloc = ref 0.0 and first_ops = ref 0 in
  while !rounds = 0 || Meter.mono_ns () < deadline do
    let ops0 = c.W.ops and a0 = Meter.allocated () and r0 = Meter.mono_ns () in
    inst.W.round c !rounds;
    let r1 = Meter.mono_ns () and a1 = Meter.allocated () in
    let ops = c.W.ops - ops0 in
    Meter.Samples.add rate (Meter.ratio (float_of_int ops) ((r1 -. r0) /. 1e9));
    if !rounds = 0 then begin
      first_alloc := a1 -. a0 -. Meter.reading_cost;
      first_ops := ops;
      after_first ()
    end;
    incr rounds
  done;
  let wall_ns = Meter.mono_ns () -. t0 and cpu_ns = Meter.cpu_ns () -. cpu0 in
  let mi1, ma1 = Meter.collections () in
  {
    wall_ns;
    cpu_ns;
    rate = Meter.Samples.to_array rate;
    first_alloc = !first_alloc;
    first_ops = !first_ops;
    minor = mi1 - mi0;
    major = ma1 - ma0;
  }

let rounds (t : timing) : int = Array.length t.rate

(* The wall-clock figures of a timed phase, as a user of the system
   sees them.  On a machine shared with other tenants they spread by
   15-25% from run to run, so they are per-layer figures, not bounded
   end-to-end ones (LAYERS.md). *)
let wall_figures (c : W.ctx) (t : timing) : (string * float) list =
  let secs = t.wall_ns /. 1e9 and ops = float_of_int (max 1 c.W.ops) in
  let lat = Meter.Samples.to_array c.W.lat in
  [
    ("wall.ops_per_s", float_of_int c.W.ops /. secs);
    ("wall.read_mb_s", c.W.read_bytes /. 1e6 /. secs);
    ("wall.op_p50_us", Meter.median lat);
    ("wall.op_p99_us", Meter.quantile lat 0.99);
    ("wall.cpu_us_per_op", t.cpu_ns /. 1000.0 /. ops);
  ]

let warm_up (inst : W.instance) : unit = inst.W.round (W.ctx None) (-1)

(* Set-up time.  Within one process, repeated set-ups agree within a few
   percent; across processes they do not: on a shared virtual machine a
   process lands in a fast or a slow mode (about 1.7x apart) and keeps
   it, so no statistic taken inside one process can see past its mode.
   The run therefore sets up in [setup_procs] fresh processes, one after
   another, each timing one set-up after an unmeasured cold one, and
   reports the fastest, which is steady as long as some process lands in
   the fast mode. *)
let setup_procs = 4

let setup_once (setup : unit -> W.instance) : float =
  ignore (setup ());
  Gc.full_major ();
  let t0 = Meter.mono_ns () in
  ignore (Sys.opaque_identity (setup ()));
  (Meter.mono_ns () -. t0) /. 1e9

let setup_in_child ~(name : string) ~(seed : string) : float =
  let exe = Sys.executable_name in
  let ic =
    Unix.open_process_args_in exe [| exe; "--workload"; name; "--seed"; seed; "--setup-once" |]
  in
  let lines = In_channel.input_all ic in
  match (Unix.close_process_in ic, String.split_on_char ' ' (String.trim lines)) with
  | Unix.WEXITED 0, [ "setup_once"; v ] -> float_of_string v
  | _ -> failwith ("perfbench: set-up process failed: " ^ lines)

let counters_of (inst : W.instance) : (string * float) list =
  match inst.W.world with
  | Some w -> List.map (fun n -> (n, float_of_int (World.counter w n))) counter_names
  | None -> []

let delta (a : (string * float) list) (b : (string * float) list) : string -> float =
 fun n ->
  match (List.assoc_opt n a, List.assoc_opt n b) with Some x, Some y -> y -. x | _ -> 0.0

let checks_of (inst : W.instance) : (string * bool) list =
  (match inst.W.batch with Some b -> b.W.b_checks | None -> []) @ inst.W.finish ()

(* --- Output --- *)

let json_number (v : float) : string =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let emit ~(correct : bool) ~(attempted : int) ~(failed : int) (metrics : (string * string * float) list)
    : unit =
  let body =
    String.concat ", "
      (List.map
         (fun (n, u, v) -> Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n (json_number v) u)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    (max 1 attempted) failed body

let report_checks (checks : (string * bool) list) : int =
  List.fold_left
    (fun bad (s, ok) ->
      Printf.printf "check %s: %s\n" (if ok then "ok  " else "FAIL") s;
      if ok then bad else bad + 1)
    0 checks

let print_metrics (ms : (string * string * float) list) : unit =
  List.iter (fun (n, u, v) -> Printf.printf "  %-34s %16.4f %s\n" n v u) ms

(* Keep the named metrics in the declared order, 0 where a layer is not
   exercised by this workload. *)
let ordered (decl : (string * string) list) (values : (string * float) list) : (string * string * float) list =
  List.map (fun (n, u) -> (n, u, Option.value ~default:0.0 (List.assoc_opt n values))) decl

(* --- The untraced run: end-to-end metrics --- *)

let run_untraced ~(name : string) ~(seed : string) ~setup ~(seconds : float) : unit =
  let setup_times = Array.init setup_procs (fun _ -> setup_in_child ~name ~seed) in
  let inst = setup ?tr:None () in
  warm_up inst;
  let c = W.ctx None in
  let t = timed inst c ~seconds in
  let checks = checks_of inst in
  Printf.printf "perfbench %s: %d rounds, %d ops in %.3f s; %d latency samples\n" name (rounds t)
    c.W.ops (t.wall_ns /. 1e9)
    (Meter.Samples.length c.W.lat);
  let bad = report_checks checks in
  Printf.printf "round ops/s: %s\n"
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.1f") t.rate)));
  let failed = c.W.failed + bad in
  let attempted = c.W.attempted + List.length checks in
  let metrics =
    ordered end_to_end
      [
        ("alloc_b_per_op", Meter.ratio t.first_alloc (float_of_int t.first_ops));
        ("peak_heap_mb", Meter.peak_heap_mb ());
        ("setup_s", Array.fold_left Float.min infinity setup_times);
      ]
  in
  Printf.printf "fail_frac %.6f (%d of %d)\n"
    (Meter.ratio (float_of_int failed) (float_of_int attempted))
    failed attempted;
  Printf.printf "set-ups, one per process (s): %s\n"
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.4f") setup_times)));
  print_endline "wall-clock figures (unbounded; per-layer in the traced run):";
  List.iter (fun (n, v) -> Printf.printf "  %-34s %16.4f\n" n v) (wall_figures c t);
  print_endline "end-to-end metrics:";
  print_metrics metrics;
  emit ~correct:(failed = 0) ~attempted ~failed metrics

(* --- The traced run: per-layer metrics --- *)

let spans_dir = ".perfbench"

let run_traced ~(name : string) ~(seed : string) ~setup ~(seconds : float) : unit =
  let half = seconds /. 2.0 in
  (* Untraced reference for the tracing overhead. *)
  let wall =
    let inst = setup ?tr:None () in
    warm_up inst;
    let c = W.ctx None in
    wall_figures c (timed inst c ~seconds:half)
  in
  let untraced_ops_s = List.assoc "wall.ops_per_s" wall in
  Gc.compact ();
  let tr = Trace.create ~cap:200_000 () in
  let inst = Trace.within tr Trace.Setup (fun () -> setup ?tr:(Some tr) ()) in
  let setup_tot = Trace.totals tr in
  let setup_counters = counters_of inst in
  warm_up inst;
  Trace.reset tr;
  let c = W.ctx (Some tr) in
  let before = counters_of inst in
  let disk0 = Option.map (fun w -> Diskmodel.stats w.World.server_disk) inst.W.world in
  let wire0 = Option.fold ~none:0 ~some:(fun w -> !(w.World.wire)) inst.W.world in
  let first = ref [] in
  let t = timed inst c ~seconds:half ~after_first:(fun () -> first := counters_of inst) in
  let tot = Trace.totals tr in
  let after = counters_of inst in
  let whole = delta before after and round0 = delta before !first in
  let checks = checks_of inst in
  let bad = report_checks checks in
  let ops = float_of_int (max 1 c.W.ops) in
  let traced_ops_s = float_of_int c.W.ops /. (t.wall_ns /. 1e9) in
  (* Counts, ratios and per-op figures: over the timed phase for the
     single-client workloads (counts over its first round), per batch
     for the crowds. *)
  let get, count, per_op, wall_round_ns =
    match inst.W.batch with
    | Some b ->
        let g n = float_of_int (b.W.b_counter n) in
        (g, g, float_of_int (max 1 b.W.b_ops), t.wall_ns /. float_of_int (rounds t))
    | None -> (whole, round0, ops, t.wall_ns)
  in
  let hit_ratio hits misses =
    let h = List.fold_left (fun a n -> a +. get n) 0.0 hits in
    Meter.ratio h (h +. List.fold_left (fun a n -> a +. get n) 0.0 misses)
  in
  let frames_c = get "channel.client.sent" and frames_s = get "channel.server.sent" in
  let probes =
    Probes.run
      ~client_frame:(Meter.ratio (get "channel.client.bytes_out") frames_c)
      ~server_frame:(Meter.ratio (get "channel.server.bytes_out") frames_s)
  in
  let rpcs, wire =
    match (inst.W.batch, inst.W.world) with
    | Some b, _ -> (float_of_int (fst b.W.b_net), float_of_int (snd b.W.b_net))
    | None, Some w -> (Trace.count tot Trace.Rpc, float_of_int (!(w.World.wire) - wire0))
    | None, None -> (0.0, 0.0)
  in
  let be = [ Trace.Be_read; Trace.Be_write; Trace.Be_meta ] in
  let be_calls = List.fold_left (fun a l -> a +. Trace.count tot l) 0.0 be in
  let be_alloc = List.fold_left (fun a l -> a +. Trace.alloc_of tot l) 0.0 be in
  let n_rpc = Trace.count tot Trace.Rpc and n_call = Trace.count tot Trace.Call in
  let single =
    match inst.W.world with
    | None -> []
    | Some w ->
        let reads1, hits1 = Diskmodel.stats w.World.server_disk in
        let reads0, hits0 = Option.value ~default:(0, 0) disk0 in
        let setup_get n = Option.value ~default:0.0 (List.assoc_opt n setup_counters) in
        [
          ("client_side.us_per_op", (Trace.ns tot Trace.Call -. tot.Trace.t_nested.(0)) /. 1000.0 /. n_call);
          ("client_side.alloc_b_per_op", (Trace.alloc_of tot Trace.Call -. tot.Trace.t_nested.(1)) /. n_call);
          ("cachefs.rpc_free_op_p50_us", Meter.median tot.Trace.t_rpc_free /. 1000.0);
          ("server.us_per_rpc", Trace.us_per tot Trace.Rpc);
          ("server.alloc_b_per_rpc", Meter.ratio (Trace.alloc_of tot Trace.Rpc) n_rpc);
          ("server.self_us_per_rpc", Meter.ratio (Trace.ns tot Trace.Rpc -. tot.Trace.t_nested.(2)) n_rpc /. 1000.0);
          ("memfs_ops.read_us_per_call", Trace.us_per tot Trace.Be_read);
          ("memfs_ops.meta_us_per_call", Trace.us_per tot Trace.Be_meta);
          ("memfs_ops.write_us_per_call", Trace.us_per tot Trace.Be_write);
          ("memfs_ops.alloc_b_per_call", Meter.ratio be_alloc be_calls);
          ("diskmodel.hit_ratio", Meter.ratio (float_of_int (hits1 - hits0)) (float_of_int (reads1 - reads0)));
          ("client.mount_us", Trace.us_per setup_tot Trace.Mount);
          ("client.authenticate_us", Trace.us_per setup_tot Trace.Auth);
          ("authserv.validate_us", Trace.us_per setup_tot Trace.Validate);
          ("agent.signatures", setup_get "agent.signatures");
          ("server.connections", setup_get "server.connections");
        ]
  in
  let crowd =
    match inst.W.batch with
    | None -> []
    | Some b ->
        let events = float_of_int b.W.b_events in
        let lookups = get "ro.verify.hit" +. get "ro.verify.miss" in
        b.W.b_layers
        @ [
            ("agent.signatures", count "agent.signatures");
            ("server.connections", count "server.connections");
            ("net.admission.refused", count "net.admission.refused");
            ("engine.events", events);
            ("engine.us_per_event", Meter.ratio (wall_round_ns /. 1000.0) events);
            ("engine.alloc_b_per_event", Meter.ratio t.first_alloc events);
            ("engine.est_share", Meter.ratio (events *. probes.Probes.event *. 1000.0) wall_round_ns);
            ("vcache.hit_ratio", hit_ratio [ "ro.verify.hit" ] [ "ro.verify.miss" ]);
            ("vcache.evictions", count "ro.vcache.evict");
            ("vcache.est_share", Meter.ratio (lookups *. probes.Probes.vcache *. 1000.0) wall_round_ns);
            ("readonly.verified_bytes_per_read", Meter.ratio (get "ro.verify.bytes") per_op);
            ( "readonly.sha1_est_share",
              Meter.ratio (get "ro.verify.bytes" /. 8192.0 *. probes.Probes.sha1_8k *. 1000.0) wall_round_ns );
            ("replica.objects_served_per_read", Meter.ratio (get "ro.serve.objs") per_op);
          ]
  in
  let common =
    [
      ("cachefs.read_hit_ratio", hit_ratio [ "cache.read.hit" ] [ "cache.read.miss" ]);
      ( "cachefs.meta_hit_ratio",
        hit_ratio
          [ "cache.attr.hit"; "cache.name.hit"; "cache.neg.hit"; "cache.access.hit" ]
          [ "cache.attr.miss"; "cache.name.miss"; "cache.access.miss" ] );
      ("cachefs.invalidations", count "cache.invalidations");
      ("simnet.rpcs_per_op", rpcs /. per_op);
      ("simnet.wire_bytes_per_op", wire /. per_op);
      ("rpc_mux.submits", count "mux.submit");
      ("rpc_mux.stalls", count "mux.stall");
      ( "channel.sealed_bytes_per_op",
        (get "channel.client.bytes_out" +. get "channel.server.bytes_out") /. per_op );
      ( "channel.est_share",
        Meter.ratio
          (((frames_c *. probes.Probes.seal_small) +. (frames_s *. probes.Probes.seal_reply)) *. 1000.0)
          wall_round_ns );
      ("nfs_server.calls_per_op", get "nfs.calls" /. per_op);
      ("lease.grants_per_op", get "lease.grants" /. per_op);
      ("gc.minor_per_kop", float_of_int t.minor /. ops *. 1000.0);
      ("gc.major_per_kop", float_of_int t.major /. ops *. 1000.0);
      ("trace.ops_per_s_traced", traced_ops_s);
      ("trace.overhead_ops_per_s", traced_ops_s -. untraced_ops_s);
      ("trace.spans", float_of_int (Trace.spans tr));
    ]
  in
  let metrics = ordered per_layer (wall @ single @ crowd @ common @ Probes.metrics probes) in
  (try
     if not (Sys.file_exists spans_dir) then Sys.mkdir spans_dir 0o755;
     let path = Filename.concat spans_dir (Printf.sprintf "%s-%s.trace.json" name seed) in
     Trace.write_chrome tr ~path ~label:name;
     Printf.printf "spans: %s (%d kept, load in Perfetto)\n" path tr.Trace.n
   with Sys_error e -> Printf.printf "spans not written: %s\n" e);
  let failed = c.W.failed + bad in
  let attempted = c.W.attempted + List.length checks in
  Printf.printf "perfbench %s (traced): %d rounds, %d ops in %.3f s\n" name (rounds t) c.W.ops
    (t.wall_ns /. 1e9);
  print_metrics metrics;
  emit ~correct:(failed = 0) ~attempted ~failed metrics

(* --- The same-seed self-check: one round's deterministic figures --- *)

let run_digest ~(name : string) ~setup : unit =
  let one tr =
    let inst = setup ?tr () in
    warm_up inst;
    let c = W.ctx tr in
    Option.iter Trace.reset tr;
    let before = counters_of inst in
    let a0 = Meter.allocated () in
    inst.W.round c 0;
    let alloc = Meter.allocated () -. a0 -. Meter.reading_cost in
    let d = delta before (counters_of inst) in
    let ledger =
      match inst.W.batch with Some b -> Digest.to_hex (Digest.string b.W.b_ledger) | None -> "-"
    in
    Printf.printf "digest %s %s ops=%d failed=%d alloc_b_per_op=%.17g ledger=%s\n" name
      (if tr = None then "untraced" else "traced")
      c.W.ops c.W.failed
      (Meter.ratio alloc (float_of_int c.W.ops))
      ledger;
    List.iter (fun n -> Printf.printf "digest %s count %s=%.0f\n" name n (d n)) counter_names;
    Option.iter
      (fun tr ->
        let tot = Trace.totals tr in
        List.iter
          (fun l -> Printf.printf "digest %s spans %s=%.0f\n" name (Trace.name l) (Trace.count tot l))
          Trace.[ Call; Rpc; Be_read; Be_write; Be_meta; Validate; Mount; Auth; Batch ])
      tr
  in
  one None;
  one (Some (Trace.create ()))

(* --- Command line --- *)

let () =
  let workload = ref "" and seed = ref "1" and seconds = ref 10.0 and trace = ref 0 in
  let digest = ref false and list = ref false and once = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME read-seq | meta-mix | crowd-rw | crowd-ro");
      ("--seed", Arg.Set_string seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or traced per-layer run");
      ("--digest", Arg.Set digest, " print one round's deterministic figures");
      ("--list-metrics", Arg.Set list, " print every metric name and unit");
      ("--setup-once", Arg.Set once, " time one warm set-up of this process and print it");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  if !list then begin
    List.iter (fun (n, u) -> Printf.printf "end_to_end %s %s\n" n u) end_to_end;
    List.iter (fun (n, u) -> Printf.printf "per_layer %s %s\n" n u) per_layer;
    exit 0
  end;
  let setup =
    match List.assoc_opt !workload workloads with
    | Some f -> fun ?tr () -> f ?tr ~seed:!seed ()
    | None ->
        prerr_endline ("perfbench: unknown workload " ^ !workload);
        exit 2
  in
  if !once then Printf.printf "setup_once %.9f\n" (setup_once (fun () -> setup ()))
  else if !digest then run_digest ~name:!workload ~setup
  else if !trace = 0 then run_untraced ~name:!workload ~seed:!seed ~setup ~seconds:!seconds
  else run_traced ~name:!workload ~seed:!seed ~setup ~seconds:!seconds
