(** Critical-path aggregation over {!Obs.cp_sample}s: per-op-type
    sample counts, additive segment totals, and wall-time quantiles
    from the mergeable {!Sketch}.  Deterministic output: ops sorted by
    name, segments in first-appearance order. *)

type op_agg = {
  oa_op : string;
  oa_count : int;
  oa_wall_us : float;  (** total wall time across samples *)
  oa_segments : (string * float) list;  (** totals, first-appearance order *)
  oa_sketch : Sketch.t;  (** per-sample wall microseconds, rounded *)
}

val per_op : Obs.registry -> op_agg list
(** Aggregate a registry's samples, sorted by op name. *)

val critical_path_json : (string * Obs.registry) list -> string option
(** Per-figure report: a JSON object keyed by registry label, one
    [op: {count,wall_us,p50_us,p95_us,p99_us,segments}] member per op;
    [None] when nothing was sampled. *)
