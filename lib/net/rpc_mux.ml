(* Windowed RPC dispatch (the libasync analogue).

   The real SFS issued many asynchronous RPCs concurrently and
   demultiplexed replies by xid; our substrate is a synchronous
   single-clock simulation, so concurrency has to be *accounted* rather
   than executed.  The trick: exchanges still run eagerly and in
   submission order (which keeps the server's execution order, the
   duplicate-request cache and the ARC4 stream positions exactly as a
   serial client would leave them), but each exchange runs under
   Simclock.absorb so it charges nothing directly.  The mux then replays
   the charges onto three virtual resource timelines:

     up_free    — the request direction of the (full-duplex) wire:
                  requests serialise among themselves but ride
                  alongside incoming replies;
     srv_free   — the server CPU/disk: each call occupies it for the
                  time the handler actually charged (measured);
     down_free  — the reply direction, plus op_us of per-reply client
                  processing (demux, copyout) that serialises even
                  under overlap.

   A call's reply is ready at

     req_done  = max(now, up_free) + wire_us(req)    up_free   := req_done
     srv_done  = max(req_done, srv_free) + server    srv_free  := srv_done
     rep_done  = max(srv_done, down_free) + wire_us(reply) + op_us
                                                     down_free := rep_done
     ready     = rep_done + latency_us

   latency_us is the fixed per-RPC round-trip cost: every call pays it,
   but it occupies no resource — that is precisely what a window > 1
   overlaps away.  With window = 1 the caller waits for each ready
   before the next send and the schedule degenerates to the serial one.

   The timelines are clamped to [now] on every submit, so a mux carried
   across idle periods or reconnects needs no reset.  A failed exchange
   (Timeout and friends) consumes no resources; its ticket holds the
   exception, raised at await so the caller's recovery path (retransmit
   / reconnect / re-auth) runs exactly as it would have serially. *)

module Obs = Sfs_obs.Obs

type 'a completion = {
  c_payload : 'a; (* decoded reply payload *)
  c_server_us : float; (* measured server-side time (Simnet.call_measured) *)
  c_wire_bytes : int; (* reply length on the wire (sealed, for SFS) *)
  c_crypto_us : float; (* reply-seal time inside c_server_us (0 when clear) *)
  c_claim_us : float;
      (* of c_crypto_us, keystream that was precomputed during donated
         idle wire time (Channel.take_recv_claim): subtracted from the
         srv timeline's occupancy and from the crypto_down segment, but
         NOT from the _ctr attribution — the channel counters billed the
         full seal, and reconciliation must keep matching them *)
}

(* Critical-path capture: everything the caller knows about the op that
   the mux cannot see.  [ci_t0_us] is the clock when the client began
   the op, before its own user-level/seal charges; [ci_crypto_up_us] is
   the request seal it billed since then. *)
type call_info = {
  ci_op : string;
  ci_t0_us : float;
  ci_crypto_up_us : float;
  ci_span : Obs.open_span;
}

type 'a ticket = {
  tk_ready_us : float;
  tk_result : ('a, exn) result;
  mutable tk_done : bool; (* awaited or force-completed: no longer in flight *)
}

type 'a t = {
  window : int;
  clock : Simclock.t;
  wire_us : int -> float;
  latency_us : float;
  op_us : float;
  exchange : string -> 'a completion;
  precompute : (budget_us:float -> float) option;
  obs : Obs.registry option;
  mutable up_free_us : float;
  mutable srv_free_us : float;
  mutable down_free_us : float;
  mutable last_seen_us : float; (* clock at the previous submit: idle is measured since here *)
  pending : 'a ticket Queue.t;
      (* submission order; done tickets linger until they reach the front *)
  mutable live : int; (* tickets in [pending] not yet done; < window between submits *)
}

let create ?obs ?precompute ~(window : int) ~(clock : Simclock.t) ~(wire_us : int -> float)
    ~(latency_us : float) ~(op_us : float) ~(exchange : string -> 'a completion) () : 'a t =
  if window < 1 then invalid_arg "Rpc_mux.create: window < 1";
  {
    window;
    clock;
    wire_us;
    latency_us;
    op_us;
    exchange;
    precompute;
    obs;
    up_free_us = 0.0;
    srv_free_us = 0.0;
    down_free_us = 0.0;
    last_seen_us = Simclock.now_us clock;
    pending = Queue.create ();
    live = 0;
  }

(* Advance the clock to the ticket's ready time.  Completion order is
   submission order for forced completions; await may complete a younger
   ticket first, which is exactly the out-of-order reply consumption the
   xid demux allows. *)
let finish (t : 'a t) (tk : 'a ticket) : unit =
  let now = Simclock.now_us t.clock in
  if tk.tk_ready_us > now then Simclock.advance t.clock (tk.tk_ready_us -. now)

let retire (t : _ t) (tk : _ ticket) : unit =
  if not tk.tk_done then begin
    tk.tk_done <- true;
    t.live <- t.live - 1
  end

(* Complete the oldest ticket still in flight, dropping the done ones
   ahead of it. *)
let rec complete_oldest (t : _ t) : unit =
  if not (Queue.is_empty t.pending) then begin
    let tk = Queue.take t.pending in
    if tk.tk_done then complete_oldest t
    else begin
      retire t tk;
      finish t tk
    end
  end

let submit ?info (t : 'a t) ~(wire_bytes : int) (request : string) : 'a ticket =
  let enter = Simclock.now_us t.clock in
  (* Window enforcement: a full window means the client blocks until the
     oldest outstanding reply arrives before it may send again. *)
  while t.live >= t.window do
    Obs.incr t.obs "mux.stall";
    complete_oldest t
  done;
  Obs.incr t.obs "mux.submit";
  let now = Simclock.now_us t.clock in
  (* Idle-wire harvest (DESIGN.md §14): any stretch since the last
     submit during which a wire direction's timeline was free is dead
     time on the channel — donate it to keystream precomputation before
     the clamp below erases the evidence.  Purely a transfer of
     already-elapsed time: the hook charges nothing to the clock, and
     mux.idle_us_used mirrors what the channel banked so the two
     ledgers reconcile. *)
  (match t.precompute with
  | None -> ()
  | Some hook ->
      let idle_of free_us =
        let busy_until = if free_us > t.last_seen_us then free_us else t.last_seen_us in
        if now > busy_until then now -. busy_until else 0.0
      in
      let budget = idle_of t.up_free_us +. idle_of t.down_free_us in
      if budget > 0.0 then begin
        let used = hook ~budget_us:budget in
        if used > 0.0 then Obs.add t.obs "mux.idle_us_used" (int_of_float used)
      end);
  t.last_seen_us <- now;
  if t.up_free_us < now then t.up_free_us <- now;
  if t.srv_free_us < now then t.srv_free_us <- now;
  if t.down_free_us < now then t.down_free_us <- now;
  let tk =
    match t.exchange request with
    | c ->
        (* Accumulated resource occupancy (integer µs): how the window's
           wall-clock divides between the server and the wire. *)
        Obs.add t.obs "mux.server_us" (int_of_float c.c_server_us);
        Obs.add t.obs "mux.wire_us"
          (int_of_float (t.wire_us wire_bytes +. t.op_us +. t.wire_us c.c_wire_bytes));
        let up_queue = t.up_free_us -. now in
        let req_done = t.up_free_us +. t.wire_us wire_bytes in
        t.up_free_us <- req_done;
        let srv_start = if req_done > t.srv_free_us then req_done else t.srv_free_us in
        (* Precomputed keystream already happened during donated idle
           wire time, so it does not occupy the server timeline again. *)
        let srv_done = srv_start +. c.c_server_us -. c.c_claim_us in
        t.srv_free_us <- srv_done;
        let rep_start = if srv_done > t.down_free_us then srv_done else t.down_free_us in
        let rep_done = rep_start +. t.wire_us c.c_wire_bytes +. t.op_us in
        t.down_free_us <- rep_done;
        let ready = rep_done +. t.latency_us in
        (match info with
        | None -> ()
        | Some ci ->
            (* Each term below telescopes: their sum is exactly
               [ready - ci_t0] (the op's wall time as the client sees
               it), checked by the reconciliation test.  "client" is
               computed as a residual so caller-side charges the mux
               cannot see (user-level copyout, xdr encode) land there
               rather than breaking the invariant. *)
            let segments =
              [
                ("client", enter -. ci.ci_t0_us -. ci.ci_crypto_up_us);
                ("crypto_up", ci.ci_crypto_up_us);
                ("mux_stall", now -. enter);
                ("up_queue", up_queue);
                ("up_wire", t.wire_us wire_bytes);
                ("srv_queue", srv_start -. req_done);
                ("server_cpu", c.c_server_us -. c.c_crypto_us);
                ("crypto_down", c.c_crypto_us -. c.c_claim_us);
                ("down_queue", rep_start -. srv_done);
                ("down_wire", t.wire_us c.c_wire_bytes);
                ("client_post", t.op_us);
                ("latency", t.latency_us);
              ]
            in
            Obs.span_end ~end_us:ready ci.ci_span;
            let cx = Obs.open_ctx ci.ci_span in
            (* The sample belongs with the op's span, not the mux: a
               serial mux keeps no registry of its own, so the mux.*
               counters describe the windowed paths only. *)
            Obs.cp_record (Obs.open_registry ci.ci_span)
              {
                Obs.cp_op = ci.ci_op;
                cp_trace = (match cx with Some c -> c.Obs.cx_trace | None -> 0);
                cp_span = (match cx with Some c -> c.Obs.cx_span | None -> 0);
                cp_start_us = ci.ci_t0_us;
                cp_wall_us = ready -. ci.ci_t0_us;
                cp_segments = segments;
                cp_crypto_up_ctr = int_of_float ci.ci_crypto_up_us;
                cp_crypto_down_ctr = int_of_float c.c_crypto_us;
              });
        { tk_ready_us = ready; tk_result = Ok c.c_payload; tk_done = false }
    | exception e ->
        (* The exchange charged nothing (Simnet.call_measured restores
           the clock); the failure is observed when awaited.  No
           critical-path sample: a failed exchange has no wall time to
           decompose (its span closes at [now] so it still appears in
           the trace). *)
        Obs.incr t.obs "mux.fail";
        (match info with None -> () | Some ci -> Obs.span_end ci.ci_span);
        { tk_ready_us = now; tk_result = Error e; tk_done = false }
  in
  Queue.push tk t.pending;
  t.live <- t.live + 1;
  tk

let await (t : 'a t) (tk : 'a ticket) : 'a =
  retire t tk;
  while (not (Queue.is_empty t.pending)) && (Queue.peek t.pending).tk_done do
    ignore (Queue.take t.pending)
  done;
  finish t tk;
  match tk.tk_result with Ok payload -> payload | Error e -> raise e

let call (t : 'a t) (request : string) : 'a =
  await t (submit t ~wire_bytes:(String.length request) request)

(* The handshakes' mux: one serial round trip over a clear connection,
   pricing [proto]'s wire.  The exchange runs the full tap / fault /
   handler path and charges nothing itself. *)
let of_conn (net : Simnet.t) ~(proto : Costmodel.transport_proto) (conn : Simnet.conn) : string t =
  create ~window:1 ~clock:(Simnet.clock net) ~wire_us:(Costmodel.transfer_us proto)
    ~latency_us:(Costmodel.rpc_fixed_us proto) ~op_us:0.0
    ~exchange:(fun msg ->
      let reply, server_us = Simnet.call_measured conn msg in
      {
        c_payload = reply;
        c_server_us = server_us;
        c_wire_bytes = String.length reply;
        c_crypto_us = 0.0 (* clear transport *);
        c_claim_us = 0.0;
      })
    ()
