(* sfstaint self-tests: a fixture mini-project fed through the
   whole-program analysis as in-memory (path, source) pairs.

   The fixture exercises the detection matrix the tool exists for:
   a direct source→sink leak, a leak through a helper call (summary
   substitution), a leak through an annotated record field (projection
   re-tainting), a declassified non-leak, and a waived leak — plus the
   determinism contract the committed taint-report.json drift gate
   relies on: byte-identical reports across runs and across input file
   orderings. *)

module Taint = Sfstaint_core.Taint

(* --- the fixture mini-project --- *)

let fx_mli =
  {|type t = { id : string; secret_part : string [@sfs.secret] }

val make_key : unit -> string [@@sfs.secret]
val send : string -> unit [@@sfs.sink "wire"]
val seal : string -> string [@@sfs.declassify "fixture seal boundary; output is ciphertext"]
|}

let leak_direct = "let run () = Fx.send (Fx.make_key ())\n"

let leak_helper = "let helper k = Fx.send k\nlet run () = helper (Fx.make_key ())\n"

let leak_field = "let run t = Fx.send t.Fx.secret_part\n"

let ok_sealed = "let run () = Fx.send (Fx.seal (Fx.make_key ()))\n"

let waived =
  "let run () =\n\
  \  (* sfstaint: allow TNT001 — fixture waiver exercising the pragma machinery *)\n\
  \  Fx.send (Fx.make_key ())\n"

let intfs = [ ("lib/fx/fx.mli", fx_mli) ]

let impls =
  [
    ("lib/fx/leak_direct.ml", leak_direct);
    ("lib/fx/leak_helper.ml", leak_helper);
    ("lib/fx/leak_field.ml", leak_field);
    ("lib/fx/ok_sealed.ml", ok_sealed);
    ("lib/fx/waived.ml", waived);
  ]

let run_fixture () =
  match Taint.analyze ~intfs ~impls () with
  | Ok r -> r
  | Error msg -> Alcotest.failf "fixture analysis failed: %s" msg

(* --- exact findings --- *)

let test_findings () =
  let r = run_fixture () in
  Alcotest.(check int) "files analyzed" 6 r.Taint.r_files;
  Alcotest.(check (list string))
    "secret sources" [ "Fx.make_key"; "Fx.secret_part" ] r.Taint.r_sources;
  Alcotest.(check int) "no diagnostics" 0 (List.length r.Taint.r_diags);
  Alcotest.(check int) "four flows in total" 4 (List.length r.Taint.r_flows);
  let unwaived = Taint.unwaived r in
  Alcotest.(check int) "three unwaived flows" 3 (List.length unwaived);
  let sorted = List.sort Taint.compare_flow unwaived in
  let summary f =
    Printf.sprintf "%s %s %s -> %s" f.Taint.f_file f.Taint.f_code f.Taint.f_source
      f.Taint.f_sink
  in
  Alcotest.(check (list string))
    "unwaived flows: direct, field-projected, transitive"
    [
      "lib/fx/leak_direct.ml TNT001 Fx.make_key -> Fx.send";
      "lib/fx/leak_field.ml TNT001 Fx.secret_part -> Fx.send";
      "lib/fx/leak_helper.ml TNT001 Fx.make_key -> Fx.send";
    ]
    (List.map summary sorted);
  List.iter
    (fun f -> Alcotest.(check string) "wire sink kind" "wire" f.Taint.f_kind)
    sorted

let test_transitive_chain () =
  let r = run_fixture () in
  let f =
    List.find (fun f -> f.Taint.f_file = "lib/fx/leak_helper.ml") (Taint.unwaived r)
  in
  (* The report carries the full call chain, not just the endpoints:
     run calls helper, helper hands the key to the sink. *)
  Alcotest.(check bool) "chain has at least two frames" true (List.length f.Taint.f_chain >= 2);
  Alcotest.(check bool) "chain passes through the helper" true
    (List.exists (fun fr -> fr.Taint.fr_callee = "Leak_helper.helper") f.Taint.f_chain);
  Alcotest.(check string) "chain ends at the sink" "Fx.send"
    (List.nth f.Taint.f_chain (List.length f.Taint.f_chain - 1)).Taint.fr_callee

let test_declassified_and_waived () =
  let r = run_fixture () in
  Alcotest.(check bool) "sealed path produces no flow" true
    (not (List.exists (fun f -> f.Taint.f_file = "lib/fx/ok_sealed.ml") r.Taint.r_flows));
  match List.filter (fun f -> f.Taint.f_waived) r.Taint.r_flows with
  | [ f ] ->
      Alcotest.(check string) "waived flow is the pragma'd file" "lib/fx/waived.ml"
        f.Taint.f_file;
      Alcotest.(check bool) "waiver carries its justification" true
        (String.length f.Taint.f_reason > 0)
  | fs -> Alcotest.failf "expected exactly one waived flow, got %d" (List.length fs)

(* A partial application stored in a record and called later through
   the field: the secret it holds reaches the sink, so the flow is
   reported where the partial application is built. *)
let leak_partial =
  "type hooks = { fire : unit -> unit }\n\
   let send_later k () = Fx.send k\n\
   let hooks k = { fire = send_later k }\n\
   let run () = (hooks (Fx.make_key ())).fire ()\n"

let test_partial_application () =
  match Taint.analyze ~intfs ~impls:[ ("lib/fx/leak_partial.ml", leak_partial) ] () with
  | Error msg -> Alcotest.failf "fixture analysis failed: %s" msg
  | Ok r ->
      let summary f =
        Printf.sprintf "%s %s %s -> %s" f.Taint.f_file f.Taint.f_code f.Taint.f_source
          f.Taint.f_sink
      in
      Alcotest.(check (list string))
        "the captured key reaches the sink"
        [ "lib/fx/leak_partial.ml TNT001 Fx.make_key -> Fx.send" ]
        (List.sort_uniq compare (List.map summary (Taint.unwaived r)))

(* --- determinism --- *)

let test_report_reproducible () =
  let j1 = Taint.report_json (run_fixture ()) in
  let j2 = Taint.report_json (run_fixture ()) in
  Alcotest.(check string) "two runs render byte-identical reports" j1 j2

(* Shuffle a list with a QCheck-supplied key stream: swap slot i with
   slot (k mod n) for each key.  Any permutation of the input files
   must produce the same report — the drift gate depends on it. *)
let permute (keys : int list) (xs : 'a list) : 'a list =
  let arr = Array.of_list xs in
  let n = Array.length arr in
  if n > 1 then
    List.iteri
      (fun i k ->
        let a = i mod n and b = abs k mod n in
        let t = arr.(a) in
        arr.(a) <- arr.(b);
        arr.(b) <- t)
      keys;
  Array.to_list arr

let prop_order_invariant =
  QCheck.Test.make ~count:30 ~name:"report invariant under input file order"
    QCheck.(pair (list int) (list int))
    (fun (ik, mk) ->
      let reference = Taint.report_json (run_fixture ()) in
      match Taint.analyze ~intfs:(permute ik intfs) ~impls:(permute mk impls) () with
      | Error _ -> false
      | Ok r -> String.equal (Taint.report_json r) reference)

let suite =
  ( "taint",
    [
      Alcotest.test_case "fixture findings" `Quick test_findings;
      Alcotest.test_case "transitive chain shape" `Quick test_transitive_chain;
      Alcotest.test_case "declassified and waived" `Quick test_declassified_and_waived;
      Alcotest.test_case "partial application keeps its taint" `Quick test_partial_application;
      Alcotest.test_case "report reproducibility" `Quick test_report_reproducible;
      QCheck_alcotest.to_alcotest prop_order_invariant;
    ] )
