module Simclock = Sfs_net.Simclock
module Simnet = Sfs_net.Simnet
module Costmodel = Sfs_net.Costmodel

let echo_service : Simnet.service = fun ~peer:_ -> fun msg -> "echo:" ^ msg

let make_net () =
  let clock = Simclock.create () in
  let net = Simnet.create clock in
  let h = Simnet.add_host net "server.example.com" in
  Simnet.listen net h ~port:7 echo_service;
  (clock, net, h)

let test_basic_exchange () =
  let clock = Simclock.create () in
  let obs = Sfs_obs.Obs.create ~now_us:(fun () -> Simclock.now_us clock) () in
  let net = Simnet.create ~obs clock in
  Simnet.listen net (Simnet.add_host net "server.example.com") ~port:7 echo_service;
  let c = Simnet.connect net ~from_host:"client" ~addr:"server.example.com" ~port:7 ~proto:Costmodel.Tcp in
  Testkit.check_string "echo" "echo:hi" (Testkit.call net c "hi");
  let count name = Sfs_obs.Obs.counter obs ("net.server.example.com:7." ^ name) in
  Testkit.check_int "rpcs" 1 (count "rpcs");
  Testkit.check_int "sent" 2 (count "bytes_out");
  Testkit.check_int "received" 7 (count "bytes_in")

let test_no_route () =
  let _, net, _ = make_net () in
  Alcotest.check_raises "unknown host" (Simnet.No_route "nowhere") (fun () ->
      ignore (Simnet.connect net ~from_host:"c" ~addr:"nowhere" ~port:7 ~proto:Costmodel.Tcp));
  Alcotest.check_raises "unknown port" (Simnet.No_route "server.example.com:99") (fun () ->
      ignore (Simnet.connect net ~from_host:"c" ~addr:"server.example.com" ~port:99 ~proto:Costmodel.Tcp))

let test_timing () =
  let clock, net, _ = make_net () in
  let c = Simnet.connect net ~from_host:"c" ~addr:"server.example.com" ~port:7 ~proto:Costmodel.Udp in
  let _, us = Simclock.time clock (fun () -> ignore (Testkit.call ~proto:Costmodel.Udp net c "")) in
  (* Null RPC over UDP: the paper's 200 us plus the tiny reply transfer.
     A window-1 mux prices one serial round trip: these are the fixed
     cost plus both messages' wire time, to within float rounding. *)
  Alcotest.(check (float 1e-9)) "null RPC" 200.41666666666666 us;
  (* 8 KB each way costs wire transfer time: ~200 + 2 * 8190/12 = 1565 us. *)
  let big = Simnet.connect net ~from_host:"c" ~addr:"server.example.com" ~port:7 ~proto:Costmodel.Udp in
  let _, us2 =
    Simclock.time clock (fun () ->
        ignore (Testkit.call ~proto:Costmodel.Udp net big (String.make 8187 'x')))
  in
  Alcotest.(check (float 1e-9)) "8K transfer time" 1564.9166666666663 us2;
  (* TCP costs more per RPC than UDP. *)
  let tcp = Simnet.connect net ~from_host:"c" ~addr:"server.example.com" ~port:7 ~proto:Costmodel.Tcp in
  let _, us3 = Simclock.time clock (fun () -> ignore (Testkit.call net tcp "")) in
  Alcotest.(check (float 1e-9)) "tcp null RPC" 220.52356020942398 us3

let test_tap_tamper () =
  let _, net, _ = make_net () in
  let tap = Simnet.passive_tap () in
  tap.Simnet.on_message <-
    (fun dir msg ->
      if dir = Simnet.To_server && msg = "attack" then Simnet.Replace "tampered" else Simnet.Pass);
  Simnet.set_default_tap net (Some tap);
  let c = Simnet.connect net ~from_host:"c" ~addr:"server.example.com" ~port:7 ~proto:Costmodel.Tcp in
  let call = Testkit.call net c in
  Testkit.check_string "tampered" "echo:tampered" (call "attack");
  Testkit.check_string "passed" "echo:ok" (call "ok");
  (* The tap observed all four messages. *)
  Testkit.check_int "observed" 4 (List.length tap.Simnet.observed)

let test_tap_drop () =
  let _, net, _ = make_net () in
  let tap = Simnet.passive_tap () in
  tap.Simnet.on_message <- (fun _ _ -> Simnet.Drop);
  Simnet.set_default_tap net (Some tap);
  let c = Simnet.connect net ~from_host:"c" ~addr:"server.example.com" ~port:7 ~proto:Costmodel.Tcp in
  Alcotest.check_raises "dropped" Simnet.Timeout (fun () -> ignore (Testkit.call net c "x"))

let test_replay_via_inject () =
  (* A stateful service: the adversary can replay a recorded message
     through [inject]; higher layers must defend themselves. *)
  let clock = Simclock.create () in
  let net = Simnet.create clock in
  let h = Simnet.add_host net "s" in
  let counter = ref 0 in
  Simnet.listen net h ~port:1 (fun ~peer:_ ->
      fun _msg ->
        incr counter;
        string_of_int !counter);
  let tap = Simnet.passive_tap () in
  Simnet.set_default_tap net (Some tap);
  let c = Simnet.connect net ~from_host:"c" ~addr:"s" ~port:1 ~proto:Costmodel.Tcp in
  ignore (Testkit.call net c "deposit");
  let recorded =
    match List.rev tap.Simnet.observed with
    | (Simnet.To_server, m) :: _ -> m
    | _ -> Alcotest.fail "no capture"
  in
  ignore (Simnet.inject c recorded);
  Testkit.check_int "replay reached the server" 2 !counter

let test_closed_conn () =
  let _, net, _ = make_net () in
  let c = Simnet.connect net ~from_host:"c" ~addr:"server.example.com" ~port:7 ~proto:Costmodel.Tcp in
  Simnet.close c;
  Alcotest.check_raises "closed" Simnet.Timeout (fun () -> ignore (Testkit.call net c "x"))

let test_per_connection_state () =
  (* Each connection gets its own handler closure. *)
  let clock = Simclock.create () in
  let net = Simnet.create clock in
  let h = Simnet.add_host net "s" in
  Simnet.listen net h ~port:1 (fun ~peer ->
      let n = ref 0 in
      fun _ ->
        incr n;
        Printf.sprintf "%s:%d" peer !n);
  let c1 = Simnet.connect net ~from_host:"alice" ~addr:"s" ~port:1 ~proto:Costmodel.Tcp in
  let c2 = Simnet.connect net ~from_host:"bob" ~addr:"s" ~port:1 ~proto:Costmodel.Tcp in
  let call1 = Testkit.call net c1 and call2 = Testkit.call net c2 in
  Testkit.check_string "c1 first" "alice:1" (call1 "");
  Testkit.check_string "c2 has own state" "bob:1" (call2 "");
  Testkit.check_string "c1 second" "alice:2" (call1 "")

let test_clock () =
  let clock = Simclock.create () in
  Alcotest.(check (float 0.001)) "zero" 0.0 (Simclock.now_us clock);
  Simclock.advance clock 1500.0;
  Alcotest.(check (float 0.001)) "advanced" 1500.0 (Simclock.now_us clock);
  Testkit.check_int "whole seconds" 0 (Simclock.seconds clock);
  Alcotest.check_raises "negative" (Invalid_argument "Simclock.advance: negative") (fun () ->
      Simclock.advance clock (-1.0))

(* Fault-injector transparency: with the *empty* fault plan armed, the
   network is indistinguishable from one with no injector at all —
   every message is delivered, exactly once, and per (src, dst) pair
   the arrival order at the server equals the send order. *)
let ordering_prop =
  let module Fault = Sfs_fault.Fault in
  QCheck.Test.make ~count:100 ~name:"empty fault plan preserves per-pair delivery order"
    QCheck.(
      pair small_int
        (list_of_size (Gen.int_range 0 40) (pair (int_bound 2) (string_of_size (Gen.int_range 0 64)))))
    (fun (seed_n, sends) ->
      let run (armed : bool) : (string * string) list =
        let clock = Simclock.create () in
        let net = Simnet.create clock in
        let h = Simnet.add_host net "srv" in
        let trace = ref [] in
        Simnet.listen net h ~port:9 (fun ~peer msg ->
            trace := (peer, msg) :: !trace;
            "ok");
        if armed then
          Simnet.set_injector net
            (Some
               (Fault.injector
                  ~now_us:(fun () -> Simclock.now_us clock)
                  (Fault.none ~seed:(string_of_int seed_n))));
        let conns =
          Array.init 3 (fun i ->
              Simnet.connect net ~from_host:(Printf.sprintf "c%d" i) ~addr:"srv" ~port:9
                ~proto:Costmodel.Udp)
        in
        let calls = Array.map (Testkit.call ~proto:Costmodel.Udp net) conns in
        List.iter (fun (ci, msg) -> ignore (calls.(ci) msg)) sends;
        List.rev !trace
      in
      let armed = run true in
      armed = run false
      && List.for_all
           (fun ci ->
             let src = Printf.sprintf "c%d" ci in
             List.filter_map (fun (p, m) -> if p = src then Some m else None) armed
             = List.filter_map (fun (c, m) -> if c = ci then Some m else None) sends)
           [ 0; 1; 2 ])

(* --- Eventq: the discrete-event engine's heap (DESIGN.md §15) --- *)

module Eventq = Sfs_net.Eventq

(* Pop order equals a stable sort by timestamp: min-first, FIFO among
   equal timestamps.  The oracle is List.stable_sort on (time, index). *)
let eventq_order_prop =
  QCheck.Test.make ~count:300 ~name:"eventq pops timestamp-sorted, FIFO-stable on ties"
    QCheck.(list (int_bound 20))
    (fun times ->
      let q = Eventq.create ~dummy:0 in
      List.iteri (fun i t -> Eventq.push q ~at:(float_of_int t) i) times;
      let rec drain acc =
        match Eventq.pop q with None -> List.rev acc | Some (at, v) -> drain ((at, v) :: acc)
      in
      let popped = drain [] in
      let oracle =
        List.stable_sort
          (fun (a, _) (b, _) -> compare (a : float) b)
          (List.mapi (fun i t -> (float_of_int t, i)) times)
      in
      popped = oracle)

(* The internal array satisfies the heap invariant after every push and
   pop of an arbitrary interleaving. *)
let eventq_heap_prop =
  QCheck.Test.make ~count:300 ~name:"eventq heap invariant holds under push/pop interleavings"
    QCheck.(list (pair bool (int_bound 1000)))
    (fun ops ->
      let q = Eventq.create ~dummy:0 in
      List.for_all
        (fun (is_pop, t) ->
          (if is_pop then ignore (Eventq.pop q)
           else Eventq.push q ~at:(float_of_int t /. 7.0) t);
          Eventq.check q)
        ops)

let test_eventq_nan () =
  let q = Eventq.create ~dummy:() in
  Alcotest.check_raises "nan rejected" (Invalid_argument "Eventq.push: NaN timestamp") (fun () ->
      Eventq.push q ~at:Float.nan ())

(* Popped payloads are not pinned by the queue: every vacated slot
   holds the sentinel, so what a finished event captured (for the
   engine, a client's whole state) can be collected. *)
let test_eventq_releases_popped () =
  let q = Eventq.create ~dummy:Bytes.empty in
  let w = Weak.create 3 in
  let[@inline never] push_payloads () =
    for i = 0 to 2 do
      let b = Bytes.make 64 'x' in
      Weak.set w i (Some b);
      Eventq.push q ~at:(float_of_int (2 - i)) b
    done
  in
  push_payloads ();
  for _ = 0 to 2 do
    ignore (Sys.opaque_identity (Eventq.pop q))
  done;
  Gc.full_major ();
  for i = 0 to 2 do
    Testkit.check_bool (Printf.sprintf "popped payload %d collected" i) false (Weak.check w i)
  done;
  Testkit.check_bool "queue drained" true (Eventq.pop q = None)

let test_clock_events () =
  let clock = Simclock.create () in
  let order = ref [] in
  let mark tag () = order := tag :: !order in
  Simclock.schedule clock ~at_us:30.0 (mark "c");
  Simclock.schedule clock ~at_us:10.0 (mark "a");
  Simclock.schedule clock ~at_us:10.0 (fun () ->
      mark "b" ();
      (* events may schedule further events, including at now *)
      Simclock.schedule clock ~at_us:5.0 (mark "clamped"));
  let n = Simclock.run_all clock in
  Testkit.check_int "events run" 4 n;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "clamped"; "c" ] (List.rev !order);
  Testkit.check_bool "clock at last event" true (Simclock.now_us clock = 30.0);
  Testkit.check_bool "queue drained" false (Simclock.run_next clock)

let test_clock_event_budget () =
  let clock = Simclock.create () in
  let rec reschedule () = Simclock.schedule clock ~at_us:(Simclock.now_us clock +. 1.0) reschedule in
  reschedule ();
  Alcotest.check_raises "runaway backstop" (Failure "Simclock.run_all: event budget exhausted")
    (fun () -> ignore (Simclock.run_all ~max_events:100 clock))

let test_admission () =
  let _, net, h = make_net () in
  Simnet.set_admission h (Some 1);
  let c1 = Simnet.connect net ~from_host:"c0" ~addr:"server.example.com" ~port:7 ~proto:Costmodel.Tcp in
  Testkit.check_int "one active conn" 1 (Simnet.host_active_conns h);
  Alcotest.check_raises "refused at the cap" Simnet.Timeout (fun () ->
      ignore (Simnet.connect net ~from_host:"c1" ~addr:"server.example.com" ~port:7 ~proto:Costmodel.Tcp));
  Simnet.close c1;
  Testkit.check_int "slot freed" 0 (Simnet.host_active_conns h);
  let c2 = Simnet.connect net ~from_host:"c1" ~addr:"server.example.com" ~port:7 ~proto:Costmodel.Tcp in
  Testkit.check_string "admitted after close" "echo:ok" (Testkit.call net c2 "ok");
  Simnet.close c2;
  Simnet.close c2;
  (* idempotent: double close must not free the slot twice *)
  Testkit.check_int "close idempotent" 0 (Simnet.host_active_conns h)

let test_host_occupy () =
  let _, _, h = make_net () in
  (* Back-to-back slices queue; a gap leaves the queue idle. *)
  Testkit.check_bool "first slice" true (Simnet.host_occupy h ~at_us:0.0 ~dur_us:10.0 = 10.0);
  Testkit.check_bool "queued behind" true (Simnet.host_occupy h ~at_us:5.0 ~dur_us:10.0 = 20.0);
  Testkit.check_bool "idle gap" true (Simnet.host_occupy h ~at_us:50.0 ~dur_us:5.0 = 55.0);
  (* The timeline stands at 55: an empty slice offered earlier starts
     there. *)
  Testkit.check_bool "timeline" true (Simnet.host_occupy h ~at_us:0.0 ~dur_us:0.0 = 55.0)

let test_served_accounting () =
  let clock, net, h = make_net () in
  let c = Simnet.connect net ~from_host:"c0" ~addr:"server.example.com" ~port:7 ~proto:Costmodel.Tcp in
  Testkit.check_bool "starts at zero" true (Simnet.host_served_us h = 0.0);
  ignore (Testkit.call net c "hello");
  let served = Simnet.host_served_us h in
  (* The echo handler charges nothing itself, so served time is the
     handler's footprint: zero here — but the accumulator must not
     pick up wire time, which the clock did advance. *)
  Testkit.check_bool "no handler charge" true (served = 0.0);
  Testkit.check_bool "wire time charged" true (Simclock.now_us clock > 0.0)

(* --- Rpc_mux: windowed dispatch (DESIGN.md §11) --- *)

module Rpc_mux = Sfs_net.Rpc_mux

(* wire 0.1 µs/byte, 100 µs fixed latency, 5 µs per-reply residual,
   40 µs of server time per call; requests are 100 B, replies 200 B. *)
let make_mux window clock =
  Rpc_mux.create ~window ~clock
    ~wire_us:(fun b -> float_of_int b /. 10.0)
    ~latency_us:100.0 ~op_us:5.0
    ~exchange:(fun req ->
      { Rpc_mux.c_payload = "r:" ^ req; c_server_us = 40.0; c_wire_bytes = 200; c_crypto_us = 0.0 })
    ()

let test_mux_timing () =
  (* window=1 degenerates to the serial schedule: every call pays the
     full req-wire + server + reply-wire + residual + latency. *)
  let clock1 = Simclock.create () in
  let mux1 = make_mux 1 clock1 in
  let per_call = 10.0 +. 40.0 +. 20.0 +. 5.0 +. 100.0 in
  Testkit.check_string "payload" "r:a" (Rpc_mux.await mux1 (Rpc_mux.submit mux1 ~wire_bytes:100 "a"));
  Alcotest.(check (float 1e-6)) "serial cost" per_call (Simclock.now_us clock1);
  ignore (Rpc_mux.await mux1 (Rpc_mux.submit mux1 ~wire_bytes:100 "b"));
  Alcotest.(check (float 1e-6)) "serial cost x2" (2.0 *. per_call) (Simclock.now_us clock1);
  (* window=8: the eight round trips overlap; after the first reply's
     full pipeline fill (175 µs) each further reply is gated only by
     the 40 µs server bottleneck, not the whole round trip. *)
  let clock8 = Simclock.create () in
  let mux8 = make_mux 8 clock8 in
  let ts = List.init 8 (fun i -> Rpc_mux.submit mux8 ~wire_bytes:100 (string_of_int i)) in
  List.iteri
    (fun i t -> Testkit.check_string "reply" ("r:" ^ string_of_int i) (Rpc_mux.await mux8 t))
    ts;
  Alcotest.(check (float 1e-6)) "pipelined wall-clock" (175.0 +. (7.0 *. 40.0)) (Simclock.now_us clock8)

let test_mux_semantics () =
  let clock = Simclock.create () in
  let calls = ref [] in
  let boom = ref false in
  let obs = Sfs_obs.Obs.create ~now_us:(fun () -> Simclock.now_us clock) () in
  let stalls () = Sfs_obs.Obs.counter obs "mux.stall" in
  let mux =
    Rpc_mux.create ~obs ~window:2 ~clock
      ~wire_us:(fun b -> float_of_int b)
      ~latency_us:10.0 ~op_us:1.0
      ~exchange:(fun req ->
        calls := req :: !calls;
        if !boom then failwith ("boom:" ^ req);
        { Rpc_mux.c_payload = req; c_server_us = 5.0; c_wire_bytes = 1; c_crypto_us = 0.0 })
      ()
  in
  let t1 = Rpc_mux.submit mux ~wire_bytes:1 "a" in
  let t2 = Rpc_mux.submit mux ~wire_bytes:1 "b" in
  Testkit.check_int "two calls fill the window" 0 (stalls ());
  (* A third submit stalls: the oldest ticket is forced to completion,
     advancing the clock to its reply, before the new call takes its
     slot. *)
  let t3 = Rpc_mux.submit mux ~wire_bytes:1 "c" in
  Alcotest.(check bool) "stall waited for the oldest reply" true (Simclock.now_us clock > 0.0);
  Testkit.check_int "the third stalled once" 1 (stalls ());
  (* Exchanges ran eagerly, in submission order — the server saw the
     same sequence a serial client would send. *)
  Testkit.check_string "submission order" "a,b,c" (String.concat "," (List.rev !calls));
  Testkit.check_string "await after forced completion" "a" (Rpc_mux.await mux t1);
  Testkit.check_string "out-of-order await" "c" (Rpc_mux.await mux t3);
  Testkit.check_string "await the middle ticket last" "b" (Rpc_mux.await mux t2);
  (* A failing exchange is captured at submit and re-raised at await. *)
  boom := true;
  let tx = Rpc_mux.submit mux ~wire_bytes:1 "x" in
  (match Rpc_mux.await mux tx with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure m -> Testkit.check_string "failure surfaces at await" "boom:x" m);
  Alcotest.check_raises "window must be positive"
    (Invalid_argument "Rpc_mux.create: window < 1") (fun () ->
      ignore (make_mux 0 (Simclock.create ())))

let suite =
  ( "net",
    [
      Alcotest.test_case "basic exchange" `Quick test_basic_exchange;
      Alcotest.test_case "no route" `Quick test_no_route;
      Alcotest.test_case "cost model timing" `Quick test_timing;
      Alcotest.test_case "adversary tamper" `Quick test_tap_tamper;
      Alcotest.test_case "adversary drop" `Quick test_tap_drop;
      Alcotest.test_case "adversary replay" `Quick test_replay_via_inject;
      Alcotest.test_case "closed connection" `Quick test_closed_conn;
      Alcotest.test_case "per-connection state" `Quick test_per_connection_state;
      Alcotest.test_case "clock" `Quick test_clock;
      Alcotest.test_case "clock events" `Quick test_clock_events;
      Alcotest.test_case "clock event budget" `Quick test_clock_event_budget;
      Alcotest.test_case "eventq nan" `Quick test_eventq_nan;
      Alcotest.test_case "eventq releases popped payloads" `Quick test_eventq_releases_popped;
      Alcotest.test_case "admission" `Quick test_admission;
      Alcotest.test_case "host occupy" `Quick test_host_occupy;
      Alcotest.test_case "served accounting" `Quick test_served_accounting;
      Alcotest.test_case "rpc mux timing" `Quick test_mux_timing;
      Alcotest.test_case "rpc mux semantics" `Quick test_mux_semantics;
    ]
    @ Testkit.to_alcotest [ ordering_prop; eventq_order_prop; eventq_heap_prop ] )
