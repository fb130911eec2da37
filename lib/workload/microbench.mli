(** Figure 5 micro-benchmarks: null-RPC latency (an unauthorized
    fchown) and sequential-read throughput of a cached large file. *)

type result = { latency_us : float; throughput_mb_s : float }

val throughput_mb_s : Stacks.world -> float

val run : Stacks.stack -> result * Stacks.world list
(** Builds the appropriate worlds and measures both columns; the worlds
    (latency then throughput) are returned so the caller can export
    their observability registries. *)
