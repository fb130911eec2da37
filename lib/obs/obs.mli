(** Deterministic observability: spans, counters and histograms.

    A {!registry} is an explicit value created by whoever builds a
    stack (see [Sfs_workload.Stacks.make]) and threaded down through
    constructors — there is no global registry.  All timestamps come
    from the [now_us] closure supplied at creation (in practice the
    simulated clock), never the wall clock, so two identical runs
    export byte-identical traces.

    Instrumentation entry points ({!add}, {!observe}, {!span}) take a
    [registry option]: passing [None] makes them no-ops, so
    uninstrumented stacks pay only an option test. *)

type histogram

type span = {
  sp_name : string;
  sp_cat : string;
  sp_start_us : float;
  sp_dur_us : float;
  sp_depth : int;  (** nesting depth at the time the span opened *)
  sp_args : (string * string) list;
  sp_trace : int;  (** trace id; [0] = not part of any trace *)
  sp_span : int;  (** span id, unique within the registry *)
  sp_parent : int;  (** causal parent span id; [0] = root *)
  sp_remote : bool;  (** parent context was adopted from the wire *)
}

type ctx = { cx_trace : int; cx_span : int }
(** A compact causal context, small enough to piggyback on every RPC:
    the trace (one per top-level op) and the sending span.  Ids are
    per-registry counters — deterministic, never derived from key
    material or the Prng. *)

(** One sampled critical-path decomposition of an RPC exchange: named
    additive segments that sum to [cp_wall_us] on the simulated clock
    (exactly, modulo float rounding — the tests check it).  The [_ctr]
    fields carry the integer microseconds each direction's seal billed
    to its [crypto_us_out] counter, for reconciliation. *)
type cp_sample = {
  cp_op : string;
  cp_trace : int;
  cp_span : int;
  cp_start_us : float;
  cp_wall_us : float;
  cp_segments : (string * float) list;
  cp_crypto_up_ctr : int;
  cp_crypto_down_ctr : int;
}

type registry

val create : ?max_spans:int -> now_us:(unit -> float) -> unit -> registry
(** [create ~now_us ()] makes an empty registry.  At most [max_spans]
    spans are retained (default 200_000); further completions bump the
    [obs.spans_dropped] counter instead of allocating. *)

val now_us : registry -> float

val add : registry option -> string -> int -> unit
[@@sfs.sink "obs"]
(** [add r name n] bumps counter [name] by [n]. *)

val incr : registry option -> string -> unit
[@@sfs.sink "obs"]
val counter : registry -> string -> int

val observe : registry option -> string -> int -> unit
[@@sfs.sink "obs"]
(** [observe r name v] records integer observation [v] (microseconds or
    bytes, rounded by the caller) into histogram [name].  Buckets are
    power-of-two sized: bucket index = bit count of [v]. *)

val span : ?args:(string * string) list -> registry option -> cat:string -> string -> (unit -> 'a) -> 'a
[@@sfs.sink "obs"]
(** [span r ~cat name f] runs [f], recording a span on completion —
    whether [f] returns or raises.  The span inherits (trace, parent)
    from the innermost enclosing {!span_root}/{!span}/{!with_ctx} and
    is itself the causal parent for the extent of [f]. *)

val span_root : ?args:(string * string) list -> registry option -> cat:string -> string -> (unit -> 'a) -> 'a
[@@sfs.sink "obs"]
(** Like {!span} but starts a fresh trace: the root of a top-level op
    (a [Cachefs]/[Client] entry point). *)

val current : registry option -> ctx option
(** The innermost active causal context, to put on the wire.  [None]
    when no trace is active (or no registry). *)

val with_ctx : registry option -> ctx option -> (unit -> 'a) -> 'a
(** [with_ctx r ctx f] adopts a context received over the wire for the
    extent of [f]: spans recorded inside become remote children of the
    sender's span (drawn as flow arrows by {!chrome_trace}).  A [None]
    or traceless context just runs [f]. *)

type open_span
(** An explicitly bracketed span, for ops whose begin and end live in
    different call frames (pipelined RPCs).  Captures its causal parent
    at {!span_begin} but does not occupy the context stack, so
    overlapping in-flight ops are fine.  sfslint rule SL012 checks that
    every [span_begin] has a reachable [span_end]. *)

val span_begin : registry option -> cat:string -> string -> open_span
[@@sfs.sink "obs"]

val span_end : ?args:(string * string) list -> ?end_us:float -> open_span -> unit
[@@sfs.sink "obs"]
(** Records the span; idempotent.  [?end_us] supplies the true
    completion time for ops awaited after they finished on the
    simulated clock. *)

val open_ctx : open_span -> ctx option
(** The context of an open span, to piggyback on its own RPC. *)

val open_registry : open_span -> registry option
(** The registry the span records into: where samples about the op it
    brackets belong ([None] for a span begun without one). *)

val spans : registry -> span list
(** Completed spans in completion order. *)

val dropped_spans : registry -> int

val cp_record : registry option -> cp_sample -> unit
[@@sfs.sink "obs"]
(** Append a critical-path sample (bounded like spans; overflow bumps
    the [obs.cp_dropped] counter). *)

val cp_samples : registry -> cp_sample list
(** Recorded samples, oldest first. *)

type histo_snapshot = {
  hs_count : int;
  hs_sum : int;
  hs_buckets : (int * int) list;  (** (bucket index, count), sparse, ascending *)
}

type snapshot = {
  snap_counters : (string * int) list;  (** sorted by name *)
  snap_histograms : (string * histo_snapshot) list;  (** sorted by name *)
  snap_spans : span list;  (** completion order *)
}

val snapshot : registry -> snapshot
val snap_counter : snapshot -> string -> int

val histo_of_observations : int list -> histo_snapshot
(** Pure constructor for property tests. *)

val histo_merge : histo_snapshot -> histo_snapshot -> histo_snapshot
(** Pointwise sum of counts, sums and buckets; associative and
    commutative because everything is an integer. *)

val chrome_trace : ?ops_only:bool -> (string * registry) list -> string
(** Chrome [trace_event] JSON (Perfetto / chrome://tracing loadable).
    Each [(label, registry)] pair becomes one process, named [label].
    Spans in a trace carry trace/span/parent args; remote children get
    "s"/"f" flow-arrow pairs from their causing span.  [~ops_only:true]
    keeps only spans belonging to a trace (the [--trace-ops] view). *)

val jsonl : registry -> string
(** Flat JSONL event stream: one
    [{"type":"counter"|"histogram"|"span"|"critical_path",...}] object
    per line, counters and histograms sorted by name, spans and
    critical-path samples in completion order. *)

val jsonl_of : (string * registry) list -> string
(** Like {!jsonl} but for several registries; each is preceded by a
    [{"type":"registry","label":...}] line. *)

val json_escape : string -> string
(** JSON string-body escaping, shared with the other exporters. *)

val counters_of_jsonl : string -> (string * int) list
(** Decode the counter lines of the {!jsonl} format (inverse of the
    counter part of {!jsonl}; ignores other line types). *)
