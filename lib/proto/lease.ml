(* Server-side lease tracking for the SFS read-write protocol.

   Paper section 3.3: "every file attribute structure returned by the
   server has a timeout field or lease" and "the server can call back
   to the client to invalidate entries before the lease expires.  The
   server does not wait for invalidations to be acknowledged;
   consistency does not need to be perfect, just better than NFS 3."

   The registry remembers, per file handle, which connections hold an
   unexpired lease.  When one connection mutates an object (or a
   directory it lives in), every other holder gets an invalidation
   queued.  Our simulated transport is synchronous request/reply, so
   callbacks are delivered by piggybacking the queue on the next reply
   to each client — same fire-and-forget semantics, documented in
   DESIGN.md. *)

module Simclock = Sfs_net.Simclock
module Obs = Sfs_obs.Obs

type t = {
  clock : Simclock.t;
  (* Per-fh holder tables keyed by connection id.  A popular file at
     fleet scale has thousands of holders; grants and refreshes must be
     O(1), not a linear scan of an association list (which made a 10k
     -client hot-file scan quadratic). *)
  holders : (string (* fh *), (int, float (* expiry *)) Hashtbl.t) Hashtbl.t;
  pending : (int, string list ref) Hashtbl.t; (* conn -> queued invalidations *)
  mutable sweep_at : int; (* [holders] size that triggers the next expired-lease sweep *)
  mutable next_conn : int;
  mutable invalidations_sent : int;
  obs : Obs.registry option;
}

let sweep_floor = 1024

let lease_s = 60

let create ?obs (clock : Simclock.t) : t =
  {
    clock;
    holders = Hashtbl.create 256;
    pending = Hashtbl.create 16;
    sweep_at = sweep_floor;
    next_conn = 1;
    invalidations_sent = 0;
    obs;
  }

(* Register a new client connection; the id keys its callback queue. *)
let register_conn (t : t) : int =
  let id = t.next_conn in
  t.next_conn <- id + 1;
  Hashtbl.replace t.pending id (ref []);
  id

let drop_conn (t : t) (conn : int) : unit = Hashtbl.remove t.pending conn

(* Forget the files whose every lease has expired (read once, or since
   removed): an expired holder is never invalidated, and a later grant
   counts as new whether or not its table survived, so the sweep changes
   nothing observable except memory.  Leases count as expired only a
   full lease period late, because the clock can step back by an
   absorbed exchange (Simclock.absorb), which is far shorter than that.
   The sweep runs when [holders] has doubled since the last one, which
   keeps grants amortized O(1). *)
let sweep_expired (t : t) (now : float) : unit =
  let cutoff = now -. (float_of_int lease_s *. 1_000_000.0) in
  Hashtbl.filter_map_inplace
    (fun _ tbl ->
      if Hashtbl.fold (fun _ expiry live -> live || expiry > cutoff) tbl false then Some tbl else None)
    t.holders;
  t.sweep_at <- max sweep_floor (2 * Hashtbl.length t.holders)

(* Record that [conn] received attributes for [fh] (it will cache them
   until the lease expires).  When the connection already holds an
   unexpired lease on the file — every block of a sequential scan
   returns the same attributes — the grant piggybacks on the reply as a
   refresh of the existing lease rather than a new registration, so a
   scan costs one grant per file, not one per block. *)
let grant (t : t) ~(conn : int) (fh : string) : unit =
  let now = Simclock.now_us t.clock in
  let expiry = now +. (float_of_int lease_s *. 1_000_000.0) in
  let tbl =
    match Hashtbl.find_opt t.holders fh with
    | Some tbl -> tbl
    | None ->
        if Hashtbl.length t.holders >= t.sweep_at then sweep_expired t now;
        let tbl = Hashtbl.create 8 in
        Hashtbl.replace t.holders fh tbl;
        tbl
  in
  (match Hashtbl.find_opt tbl conn with
  | Some old_expiry when old_expiry > now -> Obs.incr t.obs "lease.piggyback"
  | _ -> Obs.incr t.obs "lease.grants");
  Hashtbl.replace tbl conn expiry

(* A mutation of [fh] by [by]: queue invalidations to every other
   holder with an unexpired lease.  (Per-connection queues are
   disjoint, so the holder-table iteration order — deterministic for a
   given insertion history — affects no observable ordering.) *)
let invalidate (t : t) ~(by : int) (fh : string) : unit =
  match Hashtbl.find_opt t.holders fh with
  | None -> ()
  | Some tbl ->
      let now = Simclock.now_us t.clock in
      Hashtbl.iter
        (fun conn expiry ->
          if conn <> by && expiry > now then begin
            match Hashtbl.find_opt t.pending conn with
            | Some q ->
                if not (List.mem fh !q) then begin
                  q := fh :: !q;
                  t.invalidations_sent <- t.invalidations_sent + 1;
                  Obs.incr t.obs "lease.invalidations"
                end
            | None -> ()
          end)
        tbl;
      (* The mutating connection keeps its (refreshed) lease. *)
      Hashtbl.remove t.holders fh

(* Drain the callback queue for a connection (piggybacked on replies). *)
let take (t : t) (conn : int) : string list =
  match Hashtbl.find_opt t.pending conn with
  | None -> []
  | Some q ->
      let out = List.rev !q in
      q := [];
      out

let invalidations_sent (t : t) : int = t.invalidations_sent

(* Queued callbacks not yet drained by [take] — the server-side leg of
   the fleet reconciliation: sent == applied + client-pending + this. *)
let pending_count (t : t) : int =
  Hashtbl.fold (fun _ q acc -> acc + List.length !q) t.pending 0

(* How many connections currently hold a (possibly expired) lease on
   [fh] — fan-in visibility for the fleet tests. *)
let holder_count (t : t) (fh : string) : int =
  match Hashtbl.find_opt t.holders fh with None -> 0 | Some tbl -> Hashtbl.length tbl

(* Server restart: lease state is volatile and does not survive.  Every
   holder and every queued callback is forgotten; clients discover this
   through their own reconnection (their cached attributes are flushed
   on reconnect, so nothing stale outlives the lost leases). *)
let reset (t : t) : unit =
  Hashtbl.reset t.holders;
  t.sweep_at <- sweep_floor;
  Hashtbl.reset t.pending;
  Obs.incr t.obs "recover.lease_reset"
