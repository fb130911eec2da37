(** The simulated internet: hosts, services, synchronous request/reply
    deliveries, and adversary taps with full control of the wire (paper
    section 2.1.2 threat model).  A delivery charges nothing to the
    clock: every exchange rides an {!Rpc_mux}, which prices it. *)

exception Timeout
(** An exchange was dropped (by the adversary) or the peer is gone. *)

exception No_route of string
(** No such host/port. *)

type direction = To_server | To_client

(** A tap observes and may rewrite every message on a connection. *)
type tap = {
  mutable on_message : direction -> string -> action;
  mutable observed : (direction * string) list; (** newest first *)
}

and action = Pass | Replace of string | Drop

val passive_tap : unit -> tap
(** Records traffic without interfering. *)

type service = peer:string -> (string -> string)
(** A connection factory: invoked once per accepted connection, returns
    the per-connection request handler. *)

(** {2 Deterministic fault injection}

    An {!injector} is consulted on every delivery when armed (see
    {!set_injector}).  [Sfs_fault.Fault] compiles seeded fault plans
    into this interface; Simnet applies verdicts without knowing how
    they were drawn, so same-seed runs replay byte-identically. *)

type fault_action =
  | Fault_pass
  | Fault_drop  (** lose the message; the caller times out *)
  | Fault_delay of float  (** extra microseconds before delivery *)
  | Fault_corrupt of int  (** XOR byte (index mod length) with 0x5a *)
  | Fault_duplicate  (** deliver, then deliver a retransmitted copy *)
  | Fault_hold  (** park; delivered before the connection's next send *)

type injector = {
  inj_message : dir:direction -> src:string -> dst:string -> size:int -> fault_action;
  inj_host_down : string -> bool;  (** inside a crash window right now? *)
  inj_host_epoch : string -> int;  (** completed restarts for this host *)
}

type host
type t

val set_injector : t -> injector option -> unit
(** Arm (or disarm) environment faults.  Affects existing connections
    too: verdicts are read per delivery.  After a host's epoch advances
    (a crash/restart), UDP connections rebind transparently to the
    restarted service (fresh per-connection state) while TCP
    connections become permanently dead and raise {!Timeout} — callers
    must reconnect. *)

val create : ?obs:Sfs_obs.Obs.registry -> Simclock.t -> t
(** When [obs] is given, every connection records per-peer RPC and
    byte counters under [net.<addr>:<port>.*], plus one span per
    {!call_measured}.  {!inject} (the adversary's raw entry point) is
    deliberately not instrumented. *)

val clock : t -> Simclock.t

val add_host : t -> string -> host
val listen : t -> host -> port:int -> service -> unit

(** {2 Per-host run queue and admission}

    Every host carries a CPU run-queue timeline (the earliest instant
    its CPU is free) and a served-time accumulator (simulated time its
    services spent handling deliveries).  The fleet engine re-accounts
    measured server work through {!host_occupy}, so overlapped requests
    from thousands of connections serialize on the serving host. *)

val host_served_us : host -> float
val host_active_conns : host -> int

val set_admission : host -> int option -> unit
(** Cap concurrent connections to this host; further {!connect}s raise
    {!Timeout} (and bump [net.admission.refused]) until a slot frees
    via {!close}. [None] (the default) is unlimited. *)

val host_occupy : host -> at_us:float -> dur_us:float -> float
(** Occupy the host's CPU for [dur_us] starting no earlier than
    [at_us]; returns the completion instant and advances the
    timeline. *)

type conn

val connect :
  t -> from_host:string -> addr:string -> port:int -> proto:Costmodel.transport_proto -> conn
(** @raise No_route when the address or port is not served.
    @raise Timeout when an armed injector has the host inside a crash
    window, or the host is at its admission limit. *)

val call_measured : conn -> string -> string * float
[@@sfs.sink "wire"]
(** The one exchange primitive ({!Rpc_mux}'s transport): taps, the
    injector's verdict on both directions and the handler, charging
    nothing to the clock.  Returns the raw reply and the simulated
    microseconds the server side spent on it ({!Simclock.absorb}).
    @raise Timeout when the adversary or the fault plan loses either
    message, or the peer is down/restarted (TCP). *)

val inject : conn -> string -> string
[@@sfs.sink "wire"]
(** Adversary-side raw delivery (replay), bypassing taps and billing. *)

val set_default_tap : t -> tap option -> unit
(** The tap every later {!connect} installs on its connection. *)

val close : conn -> unit
