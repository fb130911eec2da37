(** The mass-client engine under {!Fleet} (read-write) and
    {!Flashcrowd} (read-only) — DESIGN.md §15.

    Every client action is an event on one simulated clock.  Its cost
    is split into a client/wire part and a serving-host part, and the
    latter queues on that host's run queue, so overlapped load
    serializes on servers while client machines stay independent.
    A client kind supplies what differs (connect, one op, the serving
    host, what a re-dial or a refresh does); the engine owns arrivals,
    the connect/backoff/re-dial loop, the op loop, give-up accounting,
    latency sketches and the ledger. *)

(** Why a client action failed, which decides what the client does next. *)
type failure =
  | Retry  (** route failure (refused dial, timeout, crash window): back off, re-dial *)
  | Refresh  (** verification failure: refresh the signed root, back off, retry the op *)
  | Fatal  (** anything else: the client gives up *)

(** Client [i] arrives at [i * us] under [Stagger us], or at
    [ramp_us * sqrt((i+1)/n)] under [Ramp ramp_us] — a flash crowd
    whose arrival rate grows linearly until everyone is in. *)
type arrival = Stagger of float | Ramp of float

(** The clock, a span-capped registry and a simulated network. *)
type world = { clock : Sfs_net.Simclock.t; obs : Sfs_obs.Obs.registry; net : Sfs_net.Simnet.t }

val world : unit -> world

(** A client population over per-client state ['c]. *)
type 'c kind = {
  host : 'c -> Sfs_net.Simnet.host;  (** the host serving the client right now *)
  connect : 'c -> (unit, failure) result;
  op : 'c -> int -> (unit, failure) result;  (** the client's [k]-th op *)
  redial : 'c -> unit;  (** before a backed-off re-dial *)
  refresh : 'c -> unit;  (** after a [Refresh] failure, before the op is retried *)
  finish : 'c -> unit;  (** done or given up: release the client's resources *)
  retry_ops : bool;
      (** [false]: a failed op is counted and the client moves on;
          [true]: it is handled by its {!failure} like a failed connect *)
  retry_limit : int;  (** consecutive failures a client survives *)
}

type tally = {
  mutable connected : int;  (** successful connects, re-dials included *)
  mutable redials : int;
  mutable refreshes : int;
  mutable ops_ok : int;
  mutable ops_failed : int;  (** failed ops skipped ([retry_ops = false]) *)
  mutable ops_abandoned : int;  (** ops never run by clients that gave up *)
  mutable finished : int;
  mutable gave_up : int;
  mutable last_ready_us : float;  (** when the last action drained *)
  op_lat : Sfs_obs.Sketch.t;  (** microseconds *)
  connect_lat : Sfs_obs.Sketch.t;
  mutable events : int;
}

val run :
  world -> 'c kind -> arrival:arrival -> ops:int -> fault:Sfs_fault.Fault.spec option ->
  ?on_restart:(string * (unit -> unit)) list -> ?extra:(float * (unit -> float)) list ->
  'c array -> tally
(** Arm the fault plan, schedule each client's arrival and then each
    [extra] event (which returns the instant its work drains), pump the
    queue dry, disarm. *)

val throughput : int -> last_ready_us:float -> float
(** Completions per simulated second up to [last_ready_us]. *)

val ledger :
  Sfs_obs.Obs.registry -> header:string -> tally:string -> last_ready_us:float ->
  sketches:(string * Sfs_obs.Sketch.t) list -> string
(** The determinism artifact: header and tally lines, the last-ready
    instant, the sketches, then every counter sorted. *)

(** {2 The Zipf tree both kinds read} *)

val zipf_cdf : n:int -> theta:float -> float array
(** CDF over [n] items, hottest first. *)

val zipf_sample : float array -> Sfs_crypto.Prng.t -> int
(** Uniform draw + binary search; deterministic per seeded Prng. *)

val zipf_file_char : int -> char
(** Every byte of Zipf file [i] (by flat index) is this char. *)

val zipf_names : files_per_dir:int -> int -> string * string
(** Zipf file [i] is [d<i / files_per_dir>/f<i mod files_per_dir>]. *)

val write_file : Sfs_nfs.Memfs.t -> dir:int -> string -> string -> unit
(** As root, create the file if it is missing and write the contents. *)

val seed_zipf_tree :
  Sfs_nfs.Memfs.t -> parent:int -> dirs:int -> files_per_dir:int -> file_bytes:int -> int array
(** Every Zipf file under [parent], by {!zipf_names}; returns the
    directory inodes. *)
