(* Tests for sfs_obs: the deterministic observability layer.

   The contract under test is determinism — two identical op sequences
   (and two identical simulated stack runs) must export byte-identical
   snapshots and JSONL — plus span well-formedness across exceptions,
   and the JSONL bytes of a scripted registry.  Sketch's laws are in
   test_sketch.ml. *)

module Obs = Sfs_obs.Obs
module Stacks = Sfs_workload.Stacks

(* A fake clock: tests advance it by hand, like Simclock but local. *)
let fake_clock () =
  let t = ref 0.0 in
  ((fun () -> !t), fun us -> t := !t +. us)

let spans r = (Obs.snapshot r).Obs.snap_spans

(* --- spans --- *)

let test_span_nesting () =
  let now, advance = fake_clock () in
  let r = Obs.create ~now_us:now () in
  let obs = Some r in
  Obs.span obs ~cat:"outer" "a" (fun () ->
      advance 10.0;
      Obs.span obs ~cat:"inner" "b" (fun () -> advance 5.0);
      advance 2.0);
  (match spans r with
  | [ b; a ] ->
      (* Completion order: the inner span closes first. *)
      Alcotest.(check string) "inner name" "b" b.Obs.sp_name;
      Alcotest.(check int) "inner depth" 1 b.Obs.sp_depth;
      Alcotest.(check (float 1e-9)) "inner start" 10.0 b.Obs.sp_start_us;
      Alcotest.(check (float 1e-9)) "inner dur" 5.0 b.Obs.sp_dur_us;
      Alcotest.(check string) "outer name" "a" a.Obs.sp_name;
      Alcotest.(check int) "outer depth" 0 a.Obs.sp_depth;
      Alcotest.(check (float 1e-9)) "outer start" 0.0 a.Obs.sp_start_us;
      Alcotest.(check (float 1e-9)) "outer dur" 17.0 a.Obs.sp_dur_us;
      (* The parent interval contains the child interval. *)
      Alcotest.(check bool) "containment" true
        (a.Obs.sp_start_us <= b.Obs.sp_start_us
        && b.Obs.sp_start_us +. b.Obs.sp_dur_us <= a.Obs.sp_start_us +. a.Obs.sp_dur_us)
  | ss -> Alcotest.failf "expected 2 spans, got %d" (List.length ss));
  Alcotest.(check int) "nothing dropped" 0 (Obs.snap_counter (Obs.snapshot r) "obs.spans_dropped")

let test_span_exception () =
  let now, advance = fake_clock () in
  let r = Obs.create ~now_us:now () in
  let obs = Some r in
  (* A raising body still closes its span, and the depth counter
     recovers so later spans are well-formed. *)
  (try
     Obs.span obs ~cat:"c" "boom" (fun () ->
         advance 3.0;
         failwith "boom")
   with Failure _ -> ());
  Obs.span obs ~cat:"c" "after" (fun () -> advance 1.0);
  match spans r with
  | [ boom; after ] ->
      Alcotest.(check string) "raising span recorded" "boom" boom.Obs.sp_name;
      Alcotest.(check (float 1e-9)) "raising span duration" 3.0 boom.Obs.sp_dur_us;
      Alcotest.(check int) "depth recovered" 0 after.Obs.sp_depth
  | ss -> Alcotest.failf "expected 2 spans, got %d" (List.length ss)

let test_span_cap () =
  let now, _ = fake_clock () in
  let r = Obs.create ~max_spans:3 ~now_us:now () in
  let obs = Some r in
  for _ = 1 to 5 do
    Obs.span obs ~cat:"c" "s" (fun () -> ())
  done;
  Alcotest.(check int) "retained" 3 (List.length (spans r));
  Alcotest.(check int) "drop counter exported" 2
    (Obs.snap_counter (Obs.snapshot r) "obs.spans_dropped")

(* --- determinism --- *)

(* One arbitrary-but-fixed op sequence against a fresh registry. *)
let scripted_run () =
  let now, advance = fake_clock () in
  let r = Obs.create ~now_us:now () in
  let obs = Some r in
  Obs.incr obs "zeta";
  Obs.add obs "alpha" 3;
  Obs.span obs ~cat:"net" "rpc" (fun () ->
      advance 12.0;
      Obs.span ~args:[ ("peer", "s1") ] obs ~cat:"net" "inner" (fun () -> advance 4.0));
  Obs.add obs "alpha" 1;
  r

let jsonl r = Obs.jsonl_of [ ("lbl", r) ]

let test_jsonl_determinism () =
  let a = jsonl (scripted_run ()) in
  let b = jsonl (scripted_run ()) in
  Alcotest.(check string) "identical op sequences export identical JSONL" a b;
  (* Counters come out sorted regardless of touch order. *)
  let names = List.map fst (Obs.snapshot (scripted_run ())).Obs.snap_counters in
  Alcotest.(check (list string)) "sorted counter names" [ "alpha"; "zeta" ] names

let test_stack_determinism () =
  (* Two identical simulated SFS worlds produce byte-equal exports.
     A tiny workload keeps this fast; it still exercises channel, net,
     nfs, cache and client instrumentation end to end. *)
  let run () =
    let w = Stacks.make Stacks.Sfs in
    Sfs_workload.Driver.write_file w (w.Stacks.workdir ^ "/f") "hello";
    ignore (Sfs_workload.Driver.read_file w (w.Stacks.workdir ^ "/f"));
    w.Stacks.obs
  in
  let r1 = run () and r2 = run () in
  Alcotest.(check string) "jsonl byte-equal" (jsonl r1) (jsonl r2);
  Alcotest.(check string) "chrome trace byte-equal"
    (Obs.chrome_trace [ ("sfs", r1) ])
    (Obs.chrome_trace [ ("sfs", r2) ]);
  (* And the instrumentation actually observed traffic. *)
  let snap = Obs.snapshot r1 in
  Alcotest.(check bool) "channel bytes flowed" true
    (Obs.snap_counter snap "channel.client.bytes_out" > 0);
  Alcotest.(check bool) "nfs ops counted" true (Obs.snap_counter snap "nfs.calls" > 0)

let test_chrome_trace_shape () =
  let trace = Obs.chrome_trace [ ("lbl", scripted_run ()) ] in
  let has sub =
    let n = String.length trace and m = String.length sub in
    let rec go i = i + m <= n && (String.sub trace i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "traceEvents array" true (has "{\"traceEvents\":[");
  Alcotest.(check bool) "process metadata" true (has "\"process_name\"");
  Alcotest.(check bool) "label present" true (has "\"lbl\"");
  Alcotest.(check bool) "complete events" true (has "\"ph\":\"X\"");
  Alcotest.(check bool) "span args survive" true (has "\"peer\":\"s1\"")

(* --- the exported bytes --- *)

(* bench/ writes every figure's metrics through [jsonl_of]; pin its
   bytes for the scripted registry, with a counter name that needs
   escaping. *)
let test_jsonl_pinned () =
  let r = scripted_run () in
  Obs.add (Some r) "q\"uote\\d" 7;
  Alcotest.(check string) "jsonl bytes"
    {|{"type":"registry","label":"lbl"}
{"type":"counter","name":"alpha","value":4}
{"type":"counter","name":"q\"uote\\d","value":7}
{"type":"counter","name":"zeta","value":1}
{"type":"span","cat":"net","name":"inner","ts":12.000,"dur":4.000,"depth":1}
{"type":"span","cat":"net","name":"rpc","ts":0.000,"dur":16.000,"depth":0}
|}
    (jsonl r)

let suite =
  ( "obs",
    [
      Alcotest.test_case "span nesting" `Quick test_span_nesting;
      Alcotest.test_case "span closes across exceptions" `Quick test_span_exception;
      Alcotest.test_case "span cap and drop counter" `Quick test_span_cap;
      Alcotest.test_case "jsonl determinism" `Quick test_jsonl_determinism;
      Alcotest.test_case "stack run determinism" `Quick test_stack_determinism;
      Alcotest.test_case "chrome trace shape" `Quick test_chrome_trace_shape;
      Alcotest.test_case "jsonl of a scripted registry" `Quick test_jsonl_pinned;
    ] )
