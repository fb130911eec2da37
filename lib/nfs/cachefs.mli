(** Client-side caching wrapped around any [Fs_intf.ops].

    Two policies: NFS 3 style (fixed TTLs, close-to-open data
    consistency) and SFS style (per-attribute leases with server
    invalidation callbacks, access-result caching, lease-backed name and
    negative-lookup caching) — the "enhanced attribute and access
    caching" of paper section 3.3.

    Every entry (attributes, names, negative lookups, access results)
    lives for the lease of the attributes it came with when leases are
    trusted and the lease is set, else for a fixed 3 s TTL.  A hit costs
    the simulated time of copying its bytes (at least 64) at 400 bytes
    per microsecond.

    The cache may be shared between local users (section 5.1), so no hit
    answers a user the server would refuse.  A data or access hit is
    checked against the cached attributes' mode bits.  A name or
    negative-lookup hit needs search evidence: fresh attributes of the
    directory that let the caller search, or, without them, a caller who
    is the user whose lookup the server answered, or the superuser;
    anyone else's lookup goes to the server. *)

open Nfs_types

type policy = {
  use_leases : bool;
      (** honour lease fields + invalidation callbacks, and cache
          negative lookups; otherwise every entry lives the fixed TTL and
          our own directory mutations drop the directory's attributes *)
  data_cache_bytes : int;  (** bound on the block cache (LRU, in bytes) *)
}

val nfs_policy : policy
val sfs_policy : policy

type t

val create :
  ?take_invalidations:(unit -> fh list) ->
  ?obs:Sfs_obs.Obs.registry ->
  ?pipeline:Fs_intf.pipeline ->
  ?write_behind:bool ->
  clock:Sfs_net.Simclock.t ->
  policy:policy ->
  Fs_intf.ops ->
  t
(** [take_invalidations] drains the server's piggybacked callbacks; it
    is polled before every cache consultation when leases are in use.
    When [pipeline] is given, sequential reads (after a short run of
    consecutive blocks on one handle) are fetched through the windowed
    dispatcher with [pl_depth] blocks of readahead; any pipelined
    failure falls back to the synchronous path, whose recovery handles
    it.  [write_behind] (default off) coalesces contiguous unstable
    writes into gather-WRITEs of up to 64 KB, flushed on any dependent
    operation (read/setattr/commit of the file, a write elsewhere) or
    via {!flush_dirty}.
    When [obs] is given, per-cache hit/miss tallies are recorded under
    [cache.attr.*], [cache.name.*], [cache.neg.hit], [cache.access.*],
    [cache.read.*], plus [cache.invalidations] for drained callbacks,
    [cache.readahead.submit], and [cache.wb.flush] / [cache.wb.bytes]
    for the write-behind path. *)

val ops : t -> Fs_intf.ops
(** The caching view of the wrapped file system. *)

val invalidate_all : t -> unit
(** Drop everything (unmount/remount between benchmark phases) — except
    the write-behind buffer, which holds unwritten user data rather
    than cached server state; call {!flush_dirty} first if the mount is
    going away for good. *)

val flush_dirty : t -> unit
(** Push any buffered write-behind data to the server now (one gather
    WRITE).  No-op when clean. *)
