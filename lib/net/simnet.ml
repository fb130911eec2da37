(* The simulated internet.

   Hosts register services on ports; clients open connections and make
   synchronous request/reply exchanges.  All protocol bytes are real
   marshaled messages.  An exchange charges nothing here: Rpc_mux
   prices the wire (Costmodel) around it, and this module gives the
   adversary its hooks.

   The paper's threat model (section 2.1.2) assumes "malicious parties
   entirely control the network": every message passes through an
   optional tap that can read, replace or drop it, and connections
   expose a raw injection entry point so recorded traffic can be
   replayed.  Under those powers an attacker should achieve nothing
   worse than delay or denial. *)

module Obs = Sfs_obs.Obs

exception Timeout
(** Raised when the adversary drops a message or the peer is gone; the
    simulated equivalent of an RPC timing out. *)

exception No_route of string
(** No host with that address exists (or it is not listening). *)

type direction = To_server | To_client

type tap = {
  mutable on_message : direction -> string -> action;
  mutable observed : (direction * string) list; (* newest first *)
}

and action = Pass | Replace of string | Drop

let passive_tap () : tap = { on_message = (fun _ _ -> Pass); observed = [] }

(* A service accepts connections; each connection gets its own handler
   closure so servers can keep per-connection state (cipher streams,
   sequence windows).  [peer] names the connecting host. *)
type service = peer:string -> (string -> string)

(* Deterministic fault injection.  Simnet consults an (optional)
   injector on every delivery; the injector decides the message's fate
   but stays ignorant of transport mechanics, and Simnet stays ignorant
   of how verdicts are drawn (lib/fault compiles seeded plans into this
   interface — the FoundationDB-style split between the network and the
   nemesis). *)
type fault_action =
  | Fault_pass
  | Fault_drop  (* lose the message; the caller times out *)
  | Fault_delay of float  (* deliver after this many extra microseconds *)
  | Fault_corrupt of int  (* XOR one byte (index mod length) with 0x5a *)
  | Fault_duplicate  (* deliver, then deliver again (retransmission) *)
  | Fault_hold  (* park; delivered before the connection's next send (reorder) *)

type injector = {
  inj_message : dir:direction -> src:string -> dst:string -> size:int -> fault_action;
  inj_host_down : string -> bool;  (* inside a crash window right now? *)
  inj_host_epoch : string -> int;  (* completed restarts for this host *)
}

type host = {
  services : (int, service) Hashtbl.t;
  (* Per-host run queue: the earliest instant this host's CPU is free.
     The fleet engine serializes overlapped work from thousands of
     connections through this timeline ({!host_occupy}). *)
  mutable cpu_free_us : float;
  (* Cumulative simulated time this host's services spent handling
     deliveries (handler charges plus injector delays).  The fleet
     engine reads deltas around each exchange to split measured cost
     into client-side and server-side shares. *)
  mutable served_us : float;
  (* Connection admission: refuse new connects past the limit. *)
  mutable admit_limit : int option;
  mutable active_conns : int;
}

(* Obs keys and span args are per (addr, port), not per connection:
   at fleet scale thousands of connections share one server endpoint
   and must share one set of counter strings (bounded registry
   cardinality, compact per-connection state). *)
type endpoint_keys = {
  k_rpcs : string;
  k_bytes_out : string;
  k_bytes_in : string;
  span_args : (string * string) list;
}

type t = {
  clock : Simclock.t;
  hosts : (string, host) Hashtbl.t; (* by name *)
  keys_cache : (string, endpoint_keys) Hashtbl.t; (* by "addr:port" *)
  (* One xid counter per client host name, the last xid it numbered:
     the client machine's one sfscd numbers every RPC it relays (paper
     section 3.3), and servers key their duplicate request caches on
     (client host, xid). *)
  xids : (string, int ref) Hashtbl.t;
  mutable default_tap : tap option; (* applied to new connections *)
  mutable injector : injector option; (* environment faults, armed per run *)
  obs : Obs.registry option;
}

let create ?obs (clock : Simclock.t) : t =
  {
    clock;
    hosts = Hashtbl.create 16;
    keys_cache = Hashtbl.create 16;
    xids = Hashtbl.create 16;
    default_tap = None;
    injector = None;
    obs;
  }

let set_injector (t : t) (inj : injector option) : unit = t.injector <- inj

let clock (t : t) = t.clock

let add_host (t : t) (name : string) : host =
  if Hashtbl.mem t.hosts name then invalid_arg ("Simnet.add_host: duplicate " ^ name);
  let h =
    {
      services = Hashtbl.create 4;
      cpu_free_us = 0.0;
      served_us = 0.0;
      admit_limit = None;
      active_conns = 0;
    }
  in
  Hashtbl.replace t.hosts name h;
  h

(* --- Per-host run queue and admission --- *)

let host_served_us (h : host) : float = h.served_us
let host_active_conns (h : host) : int = h.active_conns
let set_admission (h : host) (limit : int option) : unit = h.admit_limit <- limit

(* Occupy the host's CPU for [dur_us] starting no earlier than [at_us]:
   the run-queue primitive the fleet engine re-accounts measured server
   time through.  Returns the completion instant. *)
let host_occupy (h : host) ~(at_us : float) ~(dur_us : float) : float =
  let start = if h.cpu_free_us > at_us then h.cpu_free_us else at_us in
  let fin = start +. dur_us in
  h.cpu_free_us <- fin;
  fin

let listen (t : t) (h : host) ~(port : int) (service : service) : unit =
  ignore t;
  Hashtbl.replace h.services port service

type conn = {
  net : t;
  proto : Costmodel.transport_proto;
  peer : string; (* server host name as dialed *)
  from_host : string;
  port : int;
  host : host; (* the serving host: run queue, admission slot *)
  mutable handler : string -> string;
  mutable epoch : int; (* peer restarts observed when (re)bound *)
  mutable dead : bool; (* stream peer restarted: connection state is gone *)
  held : string Queue.t; (* reorder-parked requests, delivered before the next send *)
  tap : tap option;
  mutable closed : bool;
  keys : endpoint_keys; (* shared per (addr, port); see endpoint_keys *)
  xid : int ref; (* [from_host]'s xid counter, shared by all its connections *)
}

let endpoint_keys (t : t) (addr : string) (port : int) : endpoint_keys =
  let ep = Printf.sprintf "%s:%d" addr port in
  match Hashtbl.find_opt t.keys_cache ep with
  | Some k -> k
  | None ->
      let base = "net." ^ ep in
      let k =
        {
          k_rpcs = base ^ ".rpcs";
          k_bytes_out = base ^ ".bytes_out";
          k_bytes_in = base ^ ".bytes_in";
          span_args = [ ("peer", ep) ];
        }
      in
      Hashtbl.replace t.keys_cache ep k;
      k

let host_xids (t : t) (from_host : string) : int ref =
  match Hashtbl.find_opt t.xids from_host with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.replace t.xids from_host r;
      r

let connect (t : t) ~(from_host : string) ~(addr : string) ~(port : int) ~(proto : Costmodel.transport_proto) : conn =
  (* A host inside a crash window refuses connections: the dial times
     out rather than failing with No_route (the name still resolves). *)
  (match t.injector with
  | Some inj when inj.inj_host_down addr -> raise Timeout
  | _ -> ());
  match Hashtbl.find_opt t.hosts addr with
  | None -> raise (No_route addr)
  | Some h -> (
      match Hashtbl.find_opt h.services port with
      | None -> raise (No_route (Printf.sprintf "%s:%d" addr port))
      | Some service ->
          (* Admission control: a host at its connection limit refuses
             the dial (the caller sees a timeout and may retry once
             another client releases a slot). *)
          (match h.admit_limit with
          | Some lim when h.active_conns >= lim ->
              Obs.incr t.obs "net.admission.refused";
              raise Timeout
          | _ -> ());
          h.active_conns <- h.active_conns + 1;
          {
            net = t;
            proto;
            peer = addr;
            from_host;
            port;
            host = h;
            handler = service ~peer:from_host;
            epoch = (match t.injector with Some inj -> inj.inj_host_epoch addr | None -> 0);
            dead = false;
            held = Queue.create ();
            tap = t.default_tap;
            closed = false;
            keys = endpoint_keys t addr port;
            xid = host_xids t from_host;
          })

let next_xid (c : conn) : int =
  incr c.xid;
  !(c.xid)

let set_default_tap (t : t) (tap : tap option) : unit = t.default_tap <- tap

let close (c : conn) : unit =
  if not c.closed then begin
    c.closed <- true;
    c.host.active_conns <- c.host.active_conns - 1
  end

let apply_tap (c : conn) (dir : direction) (msg : string) : string =
  match c.tap with
  | None -> msg
  | Some tap -> (
      tap.observed <- (dir, msg) :: tap.observed;
      match tap.on_message dir msg with
      | Pass -> msg
      | Replace m -> m
      | Drop -> raise Timeout)

(* --- Fault application (no-ops unless an injector is armed) --- *)

let corrupt_byte (msg : string) (idx : int) : string =
  if msg = "" then msg
  else begin
    let b = Bytes.of_string msg in
    let i = idx mod Bytes.length b in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x5a));
    Bytes.unsafe_to_string b
  end

(* Check the connection is open and the peer alive and, after a
   restart, re-resolve the connection: datagram transports rebind
   transparently to the restarted process (whose per-connection state
   — e.g. the duplicate request cache — starts empty); stream
   transports are dead for good and the caller must reconnect. *)
let check_liveness (c : conn) : unit =
  if c.closed then raise Timeout;
  match c.net.injector with
  | None -> ()
  | Some inj ->
      if inj.inj_host_down c.peer then raise Timeout;
      let epoch = inj.inj_host_epoch c.peer in
      if epoch <> c.epoch then begin
        c.epoch <- epoch;
        match c.proto with
        | Costmodel.Udp -> (
            match Hashtbl.find_opt c.net.hosts c.peer with
            | Some h -> (
                match Hashtbl.find_opt h.services c.port with
                | Some service -> c.handler <- service ~peer:c.from_host
                | None -> c.dead <- true)
            | None -> c.dead <- true)
        | Costmodel.Tcp -> c.dead <- true
      end;
      if c.dead then raise Timeout

(* Deliver reorder-parked requests (in arrival order) before the next
   send on this connection.  Their replies were never awaited; a handler
   that times out on them (e.g. a torn-down secure-channel session)
   affects only later exchanges. *)
let flush_held (c : conn) : unit =
  while not (Queue.is_empty c.held) do
    let msg = Queue.pop c.held in
    match c.handler msg with (_ : string) -> () | exception Timeout -> ()
  done

(* Run the request through the injector's verdict and the handler,
   producing the raw reply. *)
let deliver (c : conn) (request : string) : string =
  match c.net.injector with
  | None -> c.handler request
  | Some inj -> (
      flush_held c;
      match
        inj.inj_message ~dir:To_server ~src:c.from_host ~dst:c.peer ~size:(String.length request)
      with
      | Fault_pass -> c.handler request
      | Fault_drop -> raise Timeout
      | Fault_hold ->
          Queue.push request c.held;
          raise Timeout
      | Fault_delay us ->
          Simclock.advance c.net.clock us;
          c.handler request
      | Fault_corrupt idx -> c.handler (corrupt_byte request idx)
      | Fault_duplicate ->
          let reply = c.handler request in
          (* The retransmitted copy arrives right behind the original;
             its reply is redundant and goes unobserved. *)
          (match c.handler request with (_ : string) -> () | exception Timeout -> ());
          reply)

(* The reply's own trip through the injector.  Duplicate and hold make
   no sense for a reply the caller is synchronously awaiting: a held or
   duplicated reply is indistinguishable from a delivered one here, so
   only drop/delay/corrupt apply. *)
let deliver_reply (c : conn) (reply : string) : string =
  match c.net.injector with
  | None -> reply
  | Some inj -> (
      match
        inj.inj_message ~dir:To_client ~src:c.peer ~dst:c.from_host ~size:(String.length reply)
      with
      | Fault_pass | Fault_duplicate | Fault_hold -> reply
      | Fault_drop -> raise Timeout
      | Fault_delay us ->
          Simclock.advance c.net.clock us;
          reply
      | Fault_corrupt idx -> corrupt_byte reply idx)

(* The one exchange primitive: taps, the injector's verdict on both
   directions and the handler, with the byte counters and the serving
   host's [served_us].  The delivery runs under [Simclock.absorb], so it
   charges nothing: the simulated time the server side spent (handler
   charges plus injector delays) is returned for Rpc_mux to account.  A
   failed exchange restores the clock and propagates, and the caller's
   backoff prices the loss. *)
let call_measured (c : conn) (request : string) : string * float =
  check_liveness c;
  Obs.span ~args:c.keys.span_args c.net.obs ~cat:"net" "rpc_pipe" (fun () ->
      let t = c.net in
      Obs.incr t.obs c.keys.k_rpcs;
      Obs.add t.obs c.keys.k_bytes_out (String.length request);
      let reply, server_us =
        Simclock.absorb t.clock (fun () ->
            let request = apply_tap c To_server request in
            let reply = deliver c request in
            let reply = apply_tap c To_client reply in
            deliver_reply c reply)
      in
      c.host.served_us <- c.host.served_us +. server_us;
      Obs.add t.obs c.keys.k_bytes_in (String.length reply);
      (reply, server_us))

(* Adversary entry point: deliver a raw message to the server as if it
   came from this connection, without charging the tap. *)
let inject (c : conn) (request : string) : string = c.handler request
