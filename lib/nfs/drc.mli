(** The duplicate request cache (DRC) of the NFS 3 and SFS servers.  A
    retransmitted call replays the reply it first got instead of
    executing again, which makes a client's retry-on-timeout safe for
    non-idempotent procedures (CREATE, REMOVE, RENAME...).  A bounded
    FIFO: a new key joins the back of the queue, a replaced key keeps
    its place.  What counts as a hit is the caller's test on the entry
    {!find} returns. *)

type ('k, 'v) t

val create : ?obs:Sfs_obs.Obs.registry -> bound:int -> counters:string -> unit -> ('k, 'v) t
(** At most [bound] entries; [obs] counts [<counters>.drc_insert] per
    new key and [<counters>.drc_evict] per eviction. *)

val find : ('k, 'v) t -> 'k -> 'v option

val admit : ('k, 'v) t -> 'k -> 'v -> 'v option
(** [admit t key v] stores [v] under [key].  A new key past the bound
    evicts the oldest entry first and returns it, so that the caller
    may reuse what it holds. *)

val length : ('k, 'v) t -> int
val clear : ('k, 'v) t -> unit
