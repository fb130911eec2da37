(** Server-side lease tracking for the SFS read-write protocol (paper
    section 3.3): attributes carry leases; the server calls back to
    invalidate other clients' cache entries before their leases expire,
    without waiting for acknowledgments.  Callbacks are delivered by
    piggybacking on the next reply to each client (see DESIGN.md). *)

type t

val lease_s : int
(** 60: the lease, in seconds, stamped into every attribute served. *)

val create : ?obs:Sfs_obs.Obs.registry -> Sfs_net.Simclock.t -> t
(** When [obs] is given, [lease.grants] and [lease.invalidations]
    counters are recorded. *)

val register_conn : t -> int
(** A new client connection; the id keys its callback queue. *)

val drop_conn : t -> int -> unit

val grant : t -> conn:int -> string -> unit
(** Record that [conn] received (and will cache) attributes for this
    wire handle. *)

val invalidate : t -> by:int -> string -> unit
(** A mutation by [by]: queue callbacks to every other holder with an
    unexpired lease. *)

val take : t -> int -> string list
(** Drain the callback queue for a connection. *)

val invalidations_sent : t -> int

val pending_count : t -> int
(** Invalidations queued to connections but not yet drained by {!take}.
    The fleet tests reconcile: [lease.invalidations] (queued) equals
    applied at clients + pending at clients + this. *)

val holder_count : t -> string -> int
(** How many connections currently hold a lease entry on this wire
    handle (expired entries included until the next invalidation or
    expired-lease sweep) — fan-in visibility for the fleet tests. *)

val reset : t -> unit
(** Server crash/restart: forget every holder and queued callback
    (lease state is volatile).  Bumps [recover.lease_reset]. *)
