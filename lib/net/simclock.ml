(* The simulated clock.

   The reproduction runs SFS's real protocol code over a simulated
   network and disk (DESIGN.md section 2): every component charges the
   time its real-world counterpart would have spent into one of these
   clocks.  Timestamps are microseconds since simulation start. *)

type t = { mutable now_us : float; events : (unit -> unit) Eventq.t }

let create () : t = { now_us = 0.0; events = Eventq.create ~dummy:ignore }

let now_us (t : t) : float = t.now_us
let now_s (t : t) : float = t.now_us /. 1_000_000.0

let advance (t : t) (us : float) : unit =
  if us < 0.0 then invalid_arg "Simclock.advance: negative";
  t.now_us <- t.now_us +. us

(* Measure simulated time spent in [f]. *)
let time (t : t) (f : unit -> 'a) : 'a * float =
  let t0 = t.now_us in
  let v = f () in
  (v, t.now_us -. t0)

(* Run [f], measure the simulated time it charged, then roll the clock
   back so the caller can re-account that time under an overlap model
   (Rpc_mux).  On exception the clock is restored and the exception
   propagates: a failed exchange must not leave phantom charges. *)
let absorb (t : t) (f : unit -> 'a) : 'a * float =
  let t0 = t.now_us in
  match f () with
  | v ->
      let d = t.now_us -. t0 in
      t.now_us <- t0;
      (v, d)
  | exception e ->
      t.now_us <- t0;
      raise e

(* Coarse seconds counter used for cache-lease expiry decisions. *)
let seconds (t : t) : int = int_of_float (t.now_us /. 1_000_000.0)

(* --- Discrete-event scheduling ---

   The fleet simulator drives thousands of concurrent clients by
   scheduling their next actions on the clock's own event queue
   (an O(log n) binary heap, FIFO-stable for equal timestamps) and
   pumping them in timestamp order.  An event scheduled in the past
   fires "now": the clock never runs backwards. *)

let schedule (t : t) ~(at_us : float) (f : unit -> unit) : unit =
  let at = if at_us < t.now_us then t.now_us else at_us in
  Eventq.push t.events ~at f

let pending_events (t : t) : int = Eventq.length t.events

(* Pop and run the earliest event, advancing the clock to its
   timestamp first.  The callback may schedule further events. *)
let run_next (t : t) : bool =
  match Eventq.pop t.events with
  | None -> false
  | Some (at, f) ->
      if at > t.now_us then t.now_us <- at;
      f ();
      true

(* Pump the queue dry.  [max_events] is a runaway-loop backstop: a
   simulation that schedules more than that many events is assumed
   broken and stopped with an exception rather than spinning. *)
let run_all ?(max_events = 100_000_000) (t : t) : int =
  let n = ref 0 in
  while run_next t do
    incr n;
    if !n > max_events then failwith "Simclock.run_all: event budget exhausted"
  done;
  !n
