(* The mass-client engine under Fleet (read-write) and Flashcrowd
   (read-only).  The single-client stacks run synchronously on one
   clock; a crowd's operations overlap in simulated time, so here every
   client action is an event (Simclock.schedule / run_all), run under
   Simclock.absorb and re-accounted against its serving host (see
   exec_timed).  Each client runs one state machine: arrive -> connect
   (a route failure backs off, capped linear, and re-dials) -> op loop
   -> finish, or give up after [retry_limit] consecutive failures.
   Seeded Prngs and the simulated clock make two same-config runs
   byte-identical. *)

module Simclock = Sfs_net.Simclock
module Simnet = Sfs_net.Simnet
module Simos = Sfs_os.Simos
module Memfs = Sfs_nfs.Memfs
module Obs = Sfs_obs.Obs
module Sketch = Sfs_obs.Sketch
module Fault = Sfs_fault.Fault

type failure = Retry | Refresh | Fatal
type arrival = Stagger of float | Ramp of float
type world = { clock : Simclock.t; obs : Obs.registry; net : Simnet.t }

let max_spans = 20_000

let world () : world =
  let clock = Simclock.create () in
  let obs = Obs.create ~max_spans ~now_us:(fun () -> Simclock.now_us clock) () in
  { clock; obs; net = Simnet.create ~obs clock }

type 'c kind = {
  host : 'c -> Simnet.host;
  connect : 'c -> (unit, failure) result;
  op : 'c -> int -> (unit, failure) result;
  redial : 'c -> unit;
  refresh : 'c -> unit;
  finish : 'c -> unit;
  retry_ops : bool;
  retry_limit : int;
}

type tally = {
  mutable connected : int;
  mutable redials : int;
  mutable refreshes : int;
  mutable ops_ok : int;
  mutable ops_failed : int;
  mutable ops_abandoned : int;
  mutable finished : int;
  mutable gave_up : int;
  mutable last_ready_us : float;
  op_lat : Sketch.t;
  connect_lat : Sketch.t;
  mutable events : int;
}

(* The engine's view of one client: the kind's state plus progress. *)
type 'c slot = { c : 'c; mutable attempts : int; mutable ops_done : int }

let seen_ready (t : tally) (us : float) : unit = if us > t.last_ready_us then t.last_ready_us <- us

(* Run [action] at its event instant T and re-account it: d is the
   simulated time it charged (absorb measures it and rewinds), s the
   slice [host] served (its served-time accumulator), d - s the
   client's own machine and the wire.  The client part starts at once;
   the server slice queues on the host's run queue behind every other
   client's, so the action is ready at host_occupy (T + d - s) s.  With
   one client the queue is always free and ready = T + d: the crowd
   degenerates exactly to the serial model.  Exceptions become failures. *)
let exec_timed (w : world) (t : tally) (host : Simnet.host)
    (action : unit -> (unit, failure) result) : (unit, failure) result * float * float =
  let t0 = Simclock.now_us w.clock in
  let s0 = Simnet.host_served_us host in
  let r, d =
    (* sfstaint: allow TNT004 — absorb re-raises the action's exception untouched after restoring the clock; no secret-derived value is interpolated *)
    Simclock.absorb w.clock (fun () ->
        try action () with
        | Simnet.Timeout | Simnet.No_route _ -> Error Retry
        | Sfs_core.Readonly.Verification_failed _ -> Error Refresh
        (* sfstaint: allow TNT004 — harness-fatal exceptions pass through verbatim; nothing secret-derived is attached *)
        | (Stack_overflow | Out_of_memory | Assert_failure _) as e -> raise e
        | _ ->
            (* corrupted negotiation frames, mid-handshake crashes: a
               client that dies takes only its own ops with it *)
            Error Fatal)
  in
  let s = Simnet.host_served_us host -. s0 in
  let s = if s < 0.0 then 0.0 else s in
  let cpu = if d -. s < 0.0 then 0.0 else d -. s in
  let ready = if s > 0.0 then Simnet.host_occupy host ~at_us:(t0 +. cpu) ~dur_us:s else t0 +. d in
  seen_ready t ready;
  (r, t0, ready)

let run (w : world) (kind : 'c kind) ~(arrival : arrival) ~(ops : int) ~(fault : Fault.spec option)
    ?(on_restart = []) ?(extra = []) (clients : 'c array) : tally =
  let now_us () = Simclock.now_us w.clock in
  let arm spec = Fault.injector ~obs:w.obs ~on_restart ~now_us spec in
  Simnet.set_injector w.net (Option.map arm fault);
  let t =
    { connected = 0; redials = 0; refreshes = 0; ops_ok = 0; ops_failed = 0; ops_abandoned = 0;
      finished = 0; gave_up = 0; last_ready_us = 0.0; op_lat = Sketch.create ();
      connect_lat = Sketch.create (); events = 0 }
  in
  let timed s action = exec_timed w t (kind.host s.c) action in
  let finish s = ignore (timed s (fun () -> Ok (kind.finish s.c))) in
  let give_up s =
    t.gave_up <- t.gave_up + 1;
    t.ops_abandoned <- t.ops_abandoned + (ops - s.ops_done);
    finish s
  in
  (* capped linear backoff; deterministic, spreads re-dials *)
  let backoff s =
    s.attempts <- s.attempts + 1;
    Float.min 500_000.0 (20_000.0 *. float_of_int s.attempts)
  in
  let rec connect s () =
    let r, t0, ready = timed s (fun () -> kind.connect s.c) in
    match r with
    | Ok () ->
        s.attempts <- 0;
        t.connected <- t.connected + 1;
        Sketch.observe t.connect_lat (int_of_float (ready -. t0));
        Simclock.schedule w.clock ~at_us:ready (op s)
    | Error (Retry | Refresh) when s.attempts < kind.retry_limit -> redial s ready
    | Error _ -> give_up s
  and redial s ready =
    t.redials <- t.redials + 1;
    kind.redial s.c;
    Simclock.schedule w.clock ~at_us:(ready +. backoff s) (connect s)
  and op s () =
    if s.ops_done >= ops then begin
      t.finished <- t.finished + 1;
      finish s
    end
    else
      let r, t0, ready = timed s (fun () -> kind.op s.c s.ops_done) in
      match r with
      | Ok () ->
          s.ops_done <- s.ops_done + 1;
          s.attempts <- 0;
          t.ops_ok <- t.ops_ok + 1;
          Sketch.observe t.op_lat (int_of_float (ready -. t0));
          Simclock.schedule w.clock ~at_us:ready (op s)
      | Error _ when not kind.retry_ops ->
          s.ops_done <- s.ops_done + 1;
          t.ops_failed <- t.ops_failed + 1;
          Simclock.schedule w.clock ~at_us:ready (op s)
      | Error Retry when s.attempts < kind.retry_limit -> redial s ready
      | Error Refresh when s.attempts < kind.retry_limit ->
          (* nothing wrong got cached: refresh the root (a republish may
             have evicted what the old one referenced) and re-read *)
          t.refreshes <- t.refreshes + 1;
          let _, _, rready = timed s (fun () -> Ok (kind.refresh s.c)) in
          Simclock.schedule w.clock ~at_us:(rready +. backoff s) (op s)
      | Error _ -> give_up s
  in
  let n = Array.length clients in
  Array.iteri
    (fun i c ->
      let at =
        match arrival with
        | Stagger us -> float_of_int i *. us
        | Ramp ramp_us -> ramp_us *. sqrt (float_of_int (i + 1) /. float_of_int n)
      in
      Simclock.schedule w.clock ~at_us:at (connect { c; attempts = 0; ops_done = 0 }))
    clients;
  List.iter (fun (at, ev) -> Simclock.schedule w.clock ~at_us:at (fun () -> seen_ready t (ev ())))
    extra;
  t.events <- Simclock.run_all w.clock;
  Simnet.set_injector w.net None;
  t

let throughput (n : int) ~(last_ready_us : float) : float =
  if last_ready_us <= 0.0 then 0.0 else float_of_int n /. (last_ready_us /. 1_000_000.0)

let ledger (obs : Obs.registry) ~(header : string) ~(tally : string) ~(last_ready_us : float)
    ~(sketches : (string * Sketch.t) list) : string =
  let b = Buffer.create 4096 in
  Printf.bprintf b "%s\n%s\nlast_ready_us %.3f\n" header tally last_ready_us;
  List.iter (fun (name, sk) -> Printf.bprintf b "sketch %s %s\n" name (Sketch.to_json sk)) sketches;
  List.iter
    (fun (name, v) -> Printf.bprintf b "counter %s %d\n" name v)
    (Obs.snapshot obs).Obs.snap_counters;
  Buffer.contents b

let zipf_cdf ~(n : int) ~(theta : float) : float array =
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (1.0 /. (float_of_int (i + 1) ** theta));
    cdf.(i) <- !acc
  done;
  let total = !acc in
  Array.map (fun v -> v /. total) cdf

let zipf_sample (cdf : float array) (rng : Sfs_crypto.Prng.t) : int =
  let r = float_of_int (Sfs_crypto.Prng.random_int rng 1_000_000) /. 1_000_000.0 in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < r then lo := mid + 1 else hi := mid
  done;
  !lo

let zipf_file_char (file : int) : char = Char.chr (Char.code 'a' + (file mod 26))

let zipf_names ~(files_per_dir : int) (file : int) : string * string =
  ("d" ^ string_of_int (file / files_per_dir), "f" ^ string_of_int (file mod files_per_dir))

let root_cred = Simos.cred_of_user Simos.root_user

let write_file (fs : Memfs.t) ~(dir : int) (name : string) (data : string) : unit =
  let ino =
    match Memfs.lookup fs root_cred ~dir name with
    | Ok (ino, _) -> ino
    | Error _ -> (
        match Memfs.create_file fs root_cred ~dir name ~mode:0o666 with
        | Ok (ino, _) -> ino
        | Error _ -> assert false)
  in
  match Memfs.write fs root_cred ino ~off:0 data with Ok _ -> () | Error _ -> assert false

let seed_zipf_tree (fs : Memfs.t) ~(parent : int) ~(dirs : int) ~(files_per_dir : int)
    ~(file_bytes : int) : int array =
  Array.init dirs (fun d ->
      let dname, _ = zipf_names ~files_per_dir (d * files_per_dir) in
      match Memfs.mkdir fs root_cred ~dir:parent dname ~mode:0o777 with
      | Error _ -> assert false
      | Ok (dir, _) ->
          for file = d * files_per_dir to ((d + 1) * files_per_dir) - 1 do
            let _, fname = zipf_names ~files_per_dir file in
            write_file fs ~dir fname (String.make file_bytes (zipf_file_char file))
          done;
          dir)
