(* Tests for the causal-tracing and critical-path layer (DESIGN.md §13).

   The contracts: (1) every captured op's segments sum exactly to its
   wall time on the simulated clock — the decomposition telescopes, no
   overlap is double-counted and nothing is dropped; (2) the crypto
   segments reconcile against the Channel byte counters, per direction;
   (3) two same-seed runs export byte-identical traces, JSONL and
   critical-path JSON; (4) server-side spans adopt the client op's
   trace id over the wire. *)

module Obs = Sfs_obs.Obs
module Trace = Sfs_obs.Trace
module Stacks = Sfs_workload.Stacks
module Driver = Sfs_workload.Driver

(* A fig5-style workload on a fresh world: a writeback burst, a commit,
   metadata traffic and a pipelined sequential read (window 16 is the
   Stacks default). *)
let run_workload (w : Stacks.world) : unit =
  let path = w.Stacks.workdir ^ "/trace-probe" in
  Driver.write_file w path (Driver.content ~seed:7 (256 * 1024));
  ignore (Driver.stat w path);
  ignore (Driver.read_file w path);
  ignore (Driver.read_at w path ~off:0 ~count:65536);
  Driver.unlink w path

let segments_sum (s : Obs.cp_sample) : float =
  List.fold_left (fun acc (_, v) -> acc +. v) 0.0 s.Obs.cp_segments

let test_segments_telescope () =
  let w = Stacks.make Stacks.Sfs in
  run_workload w;
  let samples = Obs.cp_samples w.Stacks.obs in
  Alcotest.(check bool) "captured ops" true (List.length samples > 10);
  List.iter
    (fun s ->
      let sum = segments_sum s in
      let tol = 1e-6 +. (1e-9 *. Float.abs s.Obs.cp_wall_us) in
      if Float.abs (sum -. s.Obs.cp_wall_us) > tol then
        Alcotest.failf "op %s: segments sum %.9f != wall %.9f" s.Obs.cp_op sum s.Obs.cp_wall_us;
      (* No segment may be negative: a negative residual would mean the
         decomposition double-counted an overlap somewhere else. *)
      List.iter
        (fun (k, v) ->
          if v < -1e-9 then Alcotest.failf "op %s: negative segment %s = %.9f" s.Obs.cp_op k v)
        s.Obs.cp_segments)
    samples

(* Crypto reconciliation: over a span of clean traffic, the per-sample
   integer crypto attributions must sum exactly to what the Channel
   counters accumulated — same ints, same rounding, per direction. *)
let test_crypto_reconciles () =
  let w = Stacks.make Stacks.Sfs in
  let counter name = Obs.snap_counter (Obs.snapshot w.Stacks.obs) name in
  let n0 = List.length (Obs.cp_samples w.Stacks.obs) in
  let up0 = counter "channel.client.crypto_us_out" in
  let down0 = counter "channel.server.crypto_us_out" in
  run_workload w;
  let fresh =
    List.filteri (fun i _ -> i >= n0) (Obs.cp_samples w.Stacks.obs)
  in
  Alcotest.(check bool) "fresh samples" true (List.length fresh > 10);
  let up_sum = List.fold_left (fun a s -> a + s.Obs.cp_crypto_up_ctr) 0 fresh in
  let down_sum = List.fold_left (fun a s -> a + s.Obs.cp_crypto_down_ctr) 0 fresh in
  Testkit.check_int "request seals reconcile" (counter "channel.client.crypto_us_out" - up0) up_sum;
  Testkit.check_int "reply seals reconcile" (counter "channel.server.crypto_us_out" - down0)
    down_sum

let test_server_adopts_trace () =
  let w = Stacks.make Stacks.Sfs in
  run_workload w;
  let spans = (Obs.snapshot w.Stacks.obs).Obs.snap_spans in
  (* Cachefs entry points are trace roots... *)
  let roots = List.filter (fun s -> s.Obs.sp_trace > 0 && s.Obs.sp_parent = 0) spans in
  Alcotest.(check bool) "trace roots exist" true (roots <> []);
  (* ...and server-side NFS dispatch spans join those traces as remote
     children (the wire annex round-tripped). *)
  let remote = List.filter (fun s -> s.Obs.sp_remote && s.Obs.sp_trace > 0) spans in
  Alcotest.(check bool) "remote spans exist" true (remote <> []);
  let root_traces = List.map (fun s -> s.Obs.sp_trace) roots in
  List.iter
    (fun s ->
      if not (List.mem s.Obs.sp_trace root_traces) then
        Alcotest.failf "remote span %s has orphan trace %d" s.Obs.sp_name s.Obs.sp_trace)
    remote;
  (* Distinct top-level ops get distinct traces. *)
  let module IS = Set.Make (Int) in
  Alcotest.(check int) "root trace ids unique" (List.length roots)
    (IS.cardinal (IS.of_list root_traces))

let test_two_runs_byte_identical () =
  let run () =
    let w = Stacks.make Stacks.Sfs in
    run_workload w;
    let regs = [ ("world", w.Stacks.obs) ] in
    let cp = match Trace.critical_path_json regs with Some j -> j | None -> "" in
    (Obs.chrome_trace ~ops_only:true regs, Obs.jsonl_of regs, cp)
  in
  let t1, j1, c1 = run () in
  let t2, j2, c2 = run () in
  Testkit.check_string "chrome trace" t1 t2;
  Testkit.check_string "jsonl" j1 j2;
  Alcotest.(check bool) "critical path present" true (c1 <> "");
  Testkit.check_string "critical path json" c1 c2

(* The aggregated view: per-op quantiles come from the wall-time
   sketch, and the mean segment map preserves the telescoping sum. *)
let test_per_op_aggregation () =
  let w = Stacks.make Stacks.Sfs in
  run_workload w;
  let aggs = Trace.per_op w.Stacks.obs in
  Alcotest.(check bool) "aggregated op types" true (List.length aggs > 2);
  List.iter
    (fun (a : Trace.op_agg) ->
      Alcotest.(check bool) (a.Trace.oa_op ^ " count") true (a.Trace.oa_count > 0);
      let seg = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 a.Trace.oa_segments in
      let tol = 1e-6 +. (1e-9 *. Float.abs a.Trace.oa_wall_us) in
      Alcotest.(check bool)
        (a.Trace.oa_op ^ " segments telescope in aggregate")
        true
        (Float.abs (seg -. a.Trace.oa_wall_us) <= tol))
    aggs

let suite =
  ( "trace",
    [
      Alcotest.test_case "segments telescope to wall time" `Quick test_segments_telescope;
      Alcotest.test_case "crypto segments reconcile with counters" `Quick test_crypto_reconciles;
      Alcotest.test_case "server adopts client trace" `Quick test_server_adopts_trace;
      Alcotest.test_case "two runs byte-identical" `Quick test_two_runs_byte_identical;
      Alcotest.test_case "per-op aggregation" `Quick test_per_op_aggregation;
    ] )
