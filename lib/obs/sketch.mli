(** Log-linear quantile sketch (HDR-histogram style).

    Integer observations land in fixed buckets: values below 32 are
    exact; larger values use 16 sub-buckets per power-of-two octave,
    bounding relative quantile error by 1/16.  The bucket layout is a
    pure function of the value, so a sketch is independent of
    observation order and byte-identically printable.  This is the
    primitive the fleet-scale p50/p99 aggregation needs: thousands of
    clients feed one sketch without keeping raw samples. *)

type t

val create : unit -> t

val observe : t -> int -> unit
[@@sfs.sink "obs"]
(** [observe t v] records [v] (microseconds or bytes; [v <= 0] maps to
    bucket 0). *)

val quantile : t -> float -> int
(** [quantile t q] returns the upper edge of the bucket holding the
    [ceil (q * count)]-th smallest observation — never below the true
    order statistic [o], and at most [o/16 + 1] above it.  [0] on an
    empty sketch. *)

val to_json : t -> string
(** [{"count":N,"sum":S,"buckets":[[i,n],...]}] — sparse, ascending,
    deterministic. *)
