(** Simulated clock: components charge modeled time here (DESIGN.md). *)

type t

val create : unit -> t
val now_us : t -> float
val seconds : t -> int

val advance : t -> float -> unit
(** Charge [us] microseconds. @raise Invalid_argument if negative. *)

val time : t -> (unit -> 'a) -> 'a * float
(** [time t f] runs [f] and returns its result with the simulated time
    it consumed. *)

val absorb : t -> (unit -> 'a) -> 'a * float
(** [absorb t f] runs [f], measures the simulated time it charged, and
    rolls the clock back to where it was, returning [(result, charged)].
    Used by the pipelined dispatcher ({!Rpc_mux}) to re-account a
    synchronous exchange's cost under an overlapped time model.  On
    exception the clock is restored and the exception re-raised. *)

(** {2 Discrete-event scheduling}

    The clock doubles as the discrete-event engine's scheduler: events
    live in an O(log n) binary-heap queue ({!Eventq}) and fire in
    timestamp order, FIFO-stable for equal timestamps.  The fleet
    simulator ({!Sfs_workload.Fleet}) schedules every client action
    here. *)

val schedule : t -> at_us:float -> (unit -> unit) -> unit
(** Schedule [f] to run at simulated time [at_us] (clamped to now if
    already past).  Callbacks may schedule further events. *)

val run_next : t -> bool
(** Pop the earliest pending event, advance the clock to its
    timestamp, and run it.  Returns [false] when the queue is empty. *)

val run_all : ?max_events:int -> t -> int
(** Pump events until the queue is dry; returns how many ran.
    @raise Failure once more than [max_events] (default 10^8) have
    fired — a runaway-simulation backstop. *)
