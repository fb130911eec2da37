(* Tests for Sketch: the mergeable log-linear quantile sketch.

   The laws under test are the ones the fleet-scale aggregation leans
   on (DESIGN.md §13): the sketch is a pure function of the multiset
   of observations (any input order), quantiles stay within the
   documented rank-error bound of the exact order statistic, and the
   JSON export is byte-identical across runs. *)

module Sketch = Sfs_obs.Sketch

(* Observations in the range the sketch is used for: latencies from
   sub-µs to tens of seconds. *)
let gen_obs = QCheck.list_of_size (QCheck.Gen.int_range 0 200) (QCheck.int_range 0 50_000_000)

let of_observations xs =
  let t = Sketch.create () in
  List.iter (Sketch.observe t) xs;
  t

(* The sketch is a function of the multiset: permuting the input
   changes nothing, including the serialized form. *)
let prop_order_independent =
  QCheck.Test.make ~name:"sketch input-order independent" ~count:200 gen_obs (fun xs ->
      let shuffled = List.sort compare xs in
      String.equal (Sketch.to_json (of_observations xs)) (Sketch.to_json (of_observations shuffled)))

(* Rank-error bound against the exact oracle: for the ceil(q*n)-th
   order statistic o (1-indexed, sorted), the reported quantile is
   >= o and <= o + o/16 + 1 — the upper edge of o's bucket. *)
let prop_rank_error_bound =
  QCheck.Test.make ~name:"sketch rank-error bound vs sorted oracle" ~count:300
    (QCheck.pair (QCheck.list_of_size (QCheck.Gen.int_range 1 200) (QCheck.int_range 0 50_000_000))
       (QCheck.float_range 0.0 1.0))
    (fun (xs, q) ->
      let t = of_observations xs in
      let sorted = List.sort compare xs in
      let n = List.length sorted in
      let rank = max 1 (min n (int_of_float (ceil (q *. float_of_int n)))) in
      let oracle = List.nth sorted (rank - 1) in
      let est = Sketch.quantile t q in
      est >= oracle && est <= oracle + (oracle / 16) + 1)

(* The documented bucket geometry: small values are exact, larger ones
   round up to their bucket edge with <= 1/16 relative slack.  A
   one-value sketch's quantile is that value's bucket edge. *)
let prop_bucket_upper =
  QCheck.Test.make ~name:"sketch bucket upper edge bound" ~count:500
    (QCheck.int_range 0 1_000_000_000) (fun v ->
      let u = Sketch.quantile (of_observations [ v ]) 1.0 in
      u >= v && (v < 32 || u <= v + (v / 16) + 1))

let test_exact_small () =
  (* Values below 32 are exact: the quantile returns them verbatim. *)
  let t = of_observations [ 3; 7; 7; 31 ] in
  Testkit.check_int "p25" 3 (Sketch.quantile t 0.25);
  Testkit.check_int "p50" 7 (Sketch.quantile t 0.5);
  Testkit.check_int "p100" 31 (Sketch.quantile t 1.0);
  Testkit.check_string "count, sum and buckets" "{\"count\":4,\"sum\":48,\"buckets\":[[3,1],[7,2],[31,1]]}"
    (Sketch.to_json t)

let test_empty () =
  let t = Sketch.create () in
  Testkit.check_int "empty quantile" 0 (Sketch.quantile t 0.99);
  Testkit.check_string "empty json" "{\"count\":0,\"sum\":0,\"buckets\":[]}" (Sketch.to_json t)

let test_json_two_runs () =
  (* Two identical builds export byte-identical JSON (the determinism
     contract every BENCH export inherits). *)
  let build () =
    let t = Sketch.create () in
    List.iter (Sketch.observe t) [ 12; 900; 44_100; 7; 7; 1_000_000; 63 ];
    Sketch.to_json t
  in
  Testkit.check_string "byte-identical" (build ()) (build ())

let suite =
  ( "sketch",
    [
      Alcotest.test_case "exact small values" `Quick test_exact_small;
      Alcotest.test_case "empty sketch" `Quick test_empty;
      Alcotest.test_case "two-run byte-identical JSON" `Quick test_json_two_runs;
      QCheck_alcotest.to_alcotest prop_order_independent;
      QCheck_alcotest.to_alcotest prop_rank_error_bound;
      QCheck_alcotest.to_alcotest prop_bucket_upper;
    ] )
