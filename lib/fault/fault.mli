(** Deterministic fault plans: seeded drop/duplicate/reorder/corrupt/
    delay probabilities plus scheduled partitions and crash/restart
    windows, compiled into a {!Sfs_net.Simnet.injector}.  Same seed,
    same verdict stream — replays are byte-identical, including the
    [fault.*] / [recover.*] counter ledger (see {!ledger}). *)

type partition = {
  pa : string;
  pb : string;  (** host pair cut off from each other, both directions *)
  p_from_us : float;
  p_until_us : float;  (** window in simulated microseconds, [from, until) *)
}

type crash = {
  c_host : string;
  c_down_us : float;  (** host refuses traffic from this instant... *)
  c_up_us : float;  (** ...until this one; volatile state is then gone *)
}

type spec
(** A complete fault plan.  Probabilities are per-myriad (1/10000 per
    message); the seed fixes every random decision. *)

val make :
  ?drop_pm:int ->
  ?dup_pm:int ->
  ?reorder_pm:int ->
  ?corrupt_pm:int ->
  ?delay_pm:int ->
  ?delay_mean_us:int ->
  ?delay_p99_us:int ->
  ?partitions:partition list ->
  ?crashes:crash list ->
  seed:string ->
  unit ->
  spec
(** All rates default to 0 (and [make ~seed ()] is a plan that injects
    nothing).  Delays are drawn uniformly in [mean/2, 3*mean/2) with a
    1-in-100 tail pinned at [delay_p99_us]; the distribution is
    integer-only so samples are identical across platforms.
    @raise Invalid_argument on rates outside [0, 10000], rate sums past
    10000, negative delays, or crash windows that end before they
    start. *)

val none : seed:string -> spec
(** The empty plan: every message passes.  Arms the injector machinery
    without perturbing anything — used to pin Simnet's ordering
    invariants in tests. *)

val injector :
  ?obs:Sfs_obs.Obs.registry ->
  ?on_restart:(string * (unit -> unit)) list ->
  now_us:(unit -> float) ->
  spec ->
  Sfs_net.Simnet.injector
(** Compile the plan.  [now_us] must be the simulated clock.
    [on_restart] hooks run once per completed crash window of the named
    host, on the first delivery or dial that observes the restart (use
    this to model volatile server state dying — e.g.
    [Sfs_core.Server.crash_recover]).  When [obs] is given, every
    injected fault bumps a [fault.*] counter. *)

(* sfslint: allow SL014 — the fault/recovery ledger that the same-seed determinism tests compare *)
val ledger : Sfs_obs.Obs.registry -> string
(** The fault/recovery ledger: all [fault.*] and [recover.*] counters,
    one "name value" line each, sorted by name.  Two same-seed runs of
    the same workload must produce byte-identical ledgers. *)
