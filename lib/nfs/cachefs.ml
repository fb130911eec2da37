(* Client-side caching, wrapped around any [Fs_intf.ops].

   Two policies, matching the paper's two protagonists:

   - NFS 3 style ([ttl]-based): attributes and name lookups are served
     from cache for a fixed timeout (3 s here, the classic acregmin),
     data blocks live in a bounded buffer cache and are discarded when
     a fresh attribute fetch shows a newer mtime (close-to-open
     consistency).

   - SFS style (leases + invalidation): "every file attribute structure
     returned by the server has a timeout field or lease" and "the
     server can call back to the client to invalidate entries before
     the lease expires" (paper section 3.3).  The wrapped ops supply
     invalidations via [take_invalidations]; consistency "does not need
     to be perfect, just better than NFS 3".

   Access-check results are cached with attributes (SFS's enhanced
   access caching), which is what lets SFS close most of its latency
   gap on the Andrew benchmark (section 4.3).

   The block cache is an LRU bounded in bytes.  Recency is insert/write
   order: a block fetched from the server, prefetched, or written
   becomes the most recent; a read hit does not promote.  Eviction
   drops least-recent blocks until the cache fits. *)

open Nfs_types
module Simos = Sfs_os.Simos
module Simclock = Sfs_net.Simclock
module Obs = Sfs_obs.Obs
module Lru = Sfs_util.Lru

type policy = {
  use_leases : bool; (* trust per-attribute lease fields + callbacks *)
  data_cache_bytes : int;
}

let nfs_policy = { use_leases = false; data_cache_bytes = 25 * 1024 * 1024 }
let sfs_policy = { use_leases = true; data_cache_bytes = 25 * 1024 * 1024 }

(* Lifetime of every entry that no trusted lease covers. *)
let attr_ttl_s = 3.0

(* Copy rate that prices a hit (at least 64 bytes' worth). *)
let memcpy_bytes_per_us = 400.0

(* Write-behind gather threshold: dirty bytes coalesce into one
   unstable WRITE of up to this size (8 blocks), the paper's "multiple
   outstanding requests" discipline applied to the write side. *)
let gather_bytes = 64 * 1024

(* Readahead arms only after this many consecutive sequential reads on
   one handle, so single-block workloads (LFS small files, MAB) never
   pay for prefetches they will not use. *)
let readahead_min_run = 8

type attr_entry = { attr : fattr; expires_us : float }

(* The single active write-behind run: contiguous unstable writes by
   one user to one file, gathered in the cache's one [gather] buffer.
   Exactly one may be live at a time — a write to any other file
   flushes it first — which bounds memory and keeps the RPC count of
   mixed workloads essentially unchanged. *)
type wbuf = { wb_fh : fh; wb_off : int; wb_cred : Simos.cred }

type t = {
  inner : Fs_intf.ops;
  clock : Simclock.t;
  policy : policy;
  take_invalidations : unit -> fh list; (* drained before each cache consult *)
  pipeline : Fs_intf.pipeline option; (* windowed read path, when the transport offers one *)
  write_behind : bool;
  inflight : (fh * int, unit -> (string * bool * fattr) res) Hashtbl.t;
  (* submitted block reads, by block; claimed (awaited) by the next read *)
  last_read : (fh, int * int) Hashtbl.t; (* last block read, run length *)
  mutable wbuf : wbuf option; (* only ever set when [write_behind] *)
  gather : Buffer.t; (* the live run's bytes; cleared, not freed, by each flush *)
  attrs : (fh, attr_entry) Hashtbl.t;
  (* Name and negative entries carry the uid whose lookup, create or
     readdir the server answered: the search evidence for a hit when
     the directory's attributes are not fresh (see [may_search]). *)
  names : (fh * string, fh * float * int) Hashtbl.t; (* target, expiry, uid *)
  negatives : (fh * string, float * int) Hashtbl.t; (* lease-backed: expiry, uid *)
  access_cache : (fh * int * int, int * float) Hashtbl.t; (* (fh, uid, mask) -> granted, expiry *)
  (* Each block is a string of its own: the data a READ reply decoded
     or a write put on the server, shared with every reader it is
     served to whole. *)
  blocks : (fh * int, string) Lru.t;
  mutable cached_bytes : int;
  obs : Obs.registry option;
}

let no_invalidations () : fh list = []

let create ?(take_invalidations = no_invalidations) ?obs ?pipeline ?(write_behind = false)
    ~(clock : Simclock.t) ~(policy : policy) (inner : Fs_intf.ops) : t =
  {
    inner;
    clock;
    policy;
    take_invalidations;
    obs;
    pipeline;
    write_behind;
    inflight = Hashtbl.create 16;
    last_read = Hashtbl.create 16;
    wbuf = None;
    gather = Buffer.create 16;
    attrs = Hashtbl.create 16;
    names = Hashtbl.create 16;
    negatives = Hashtbl.create 16;
    access_cache = Hashtbl.create 16;
    blocks = Lru.create 16;
    cached_bytes = 0;
  }

(* Remove every binding of [tbl] that [doomed] picks. *)
let drop_where (tbl : ('k, 'v) Hashtbl.t) (doomed : 'k -> 'v -> bool) : unit =
  Hashtbl.filter_map_inplace (fun k v -> if doomed k v then None else Some v) tbl

let drop_blocks (t : t) (h : fh) : unit =
  let doomed = Lru.fold (fun (f, b) data acc -> if f = h then ((f, b), data) :: acc else acc) t.blocks [] in
  List.iter
    (fun (k, data) ->
      t.cached_bytes <- t.cached_bytes - String.length data;
      Lru.remove t.blocks k)
    doomed

(* Abandon submitted readahead for a handle: the replies are simply
   never awaited (the dispatcher force-completes their tickets under
   window pressure, as a real client would discard stale replies).
   Every write calls this, so the common empty table costs no scan. *)
let drop_inflight (t : t) (h : fh) : unit =
  if Hashtbl.length t.inflight > 0 then drop_where t.inflight (fun (f, _) _ -> f = h)

let invalidate_fh (t : t) (h : fh) : unit =
  Hashtbl.remove t.attrs h;
  drop_where t.access_cache (fun (f, _, _) _ -> f = h);
  drop_blocks t h;
  drop_inflight t h;
  Hashtbl.remove t.last_read h;
  (* Name entries pointing into or out of this handle go too. *)
  drop_where t.names (fun (d, _) (tgt, _, _) -> d = h || tgt = h);
  drop_where t.negatives (fun (d, _) _ -> d = h)

let drain_invalidations (t : t) : unit =
  if t.policy.use_leases then begin
    let fhs = t.take_invalidations () in
    if fhs <> [] then Obs.add t.obs "cache.invalidations" (List.length fhs);
    List.iter (invalidate_fh t) fhs
  end

(* Note: the write-behind buffer survives — it holds unwritten user
   data, not cached server state, and this runs mid-recovery (reconnect
   flushes caches before the channel is usable again).  The dirty data
   flushes on its next trigger or via [flush_dirty]. *)
let invalidate_all (t : t) : unit =
  Hashtbl.reset t.attrs;
  Hashtbl.reset t.names;
  Hashtbl.reset t.access_cache;
  Hashtbl.reset t.negatives;
  Lru.clear t.blocks;
  Hashtbl.reset t.inflight;
  Hashtbl.reset t.last_read;
  t.cached_bytes <- 0

let charge_hit (t : t) (bytes : int) : unit =
  Simclock.advance t.clock (float_of_int (max bytes 64) /. memcpy_bytes_per_us)

(* The one expiry rule, for attributes, names, negative entries and
   access results alike: an entry noted now lives for the lease of [a]
   when leases are trusted and [a] carries one, else the fixed TTL.
   Under leases an entry cannot go stale without a server callback. *)
let expiry_us (t : t) (a : fattr option) : float =
  let ttl_s =
    match a with Some a when t.policy.use_leases && a.lease > 0 -> float_of_int a.lease | _ -> attr_ttl_s
  in
  Simclock.now_us t.clock +. (ttl_s *. 1_000_000.0)

let fresh_attr (t : t) (h : fh) : fattr option =
  match Hashtbl.find_opt t.attrs h with
  | Some e when e.expires_us > Simclock.now_us t.clock -> Some e.attr
  | _ -> None

(* Remember attributes.  Data cache consistency: a newer mtime
   invalidates the cached blocks. *)
let note_attr (t : t) (h : fh) (a : fattr) : unit =
  let expires_us = expiry_us t (Some a) in
  (match Hashtbl.find_opt t.attrs h with
  | Some old when time_compare old.attr.mtime a.mtime <> 0 -> drop_blocks t h
  | _ -> ());
  Hashtbl.replace t.attrs h { attr = a; expires_us }

(* Remember that [name] in [dir] is [h], with [uid] the user whose
   request showed it may search [dir] ([no_searcher] when none did);
   the name lives as long as the target's attributes would. *)
let note_name (t : t) ~(uid : int) ~(dir : fh) (name : string) (h : fh) (a : fattr) : unit =
  Hashtbl.remove t.negatives (dir, name);
  Hashtbl.replace t.names (dir, name) (h, expiry_us t (Some a), uid)

(* Not a uid: real users are >= 0 and the anonymous user is -2. *)
let no_searcher = -1

let rec evict_blocks_if_needed (t : t) : unit =
  if t.cached_bytes > t.policy.data_cache_bytes then
    match Lru.pop_lru t.blocks with
    | Some (_, data) ->
        t.cached_bytes <- t.cached_bytes - String.length data;
        evict_blocks_if_needed t
    | None -> t.cached_bytes <- 0

let note_block (t : t) (h : fh) (block : int) (data : string) : unit =
  (match Lru.peek t.blocks (h, block) with
  | Some old -> t.cached_bytes <- t.cached_bytes - String.length old
  | None -> ());
  Lru.replace t.blocks (h, block) data;
  t.cached_bytes <- t.cached_bytes + String.length data;
  evict_blocks_if_needed t

(* Cache the block-aligned chunks of [data] read from or written at
   [off]; a short chunk only when [ends_file] (the read path bounds hits
   by the cached size). *)
let note_chunks (t : t) (h : fh) ~(off : int) ~(ends_file : bool) (data : string) : unit =
  if off mod block_size = 0 then
    List.iteri
      (fun i chunk ->
        if String.length chunk = block_size || ends_file then
          note_block t h ((off / block_size) + i) chunk)
      (Sfs_util.Bytesutil.chunks ~size:block_size data)

(* Client-side permission enforcement for cache hits.  The cache is
   shared between local users (safe for consistency because they named
   the same public key — section 5.1), but serving a hit must still
   honour the mode bits of the cached attributes, exactly as a kernel
   checks cached inodes. *)
let may (cred : Simos.cred) (a : fattr) ~(want : int) : bool =
  Simos.is_superuser cred
  ||
  let shift =
    if cred.Simos.cred_uid = a.uid then 6 else if Simos.in_group cred a.gid then 3 else 0
  in
  (a.mode lsr shift) land want = want

(* Whether a cached name or negative entry under [dir], recorded for
   [uid], may answer [cred]: by the search bit of the directory's fresh
   attributes, else only for [uid] itself or the superuser.  Anyone
   else asks the server, which would refuse a user who cannot search. *)
let may_search (t : t) (cred : Simos.cred) ~(dir : fh) ~(uid : int) : bool =
  match fresh_attr t dir with
  | Some d -> may cred d ~want:1
  | None -> Simos.is_superuser cred || cred.Simos.cred_uid = uid

let ( let* ) = Result.bind

(* --- Write-behind --- *)

(* Cache what a write (direct or flushed) put on the server: attributes
   first (the mtime change evicts stale blocks), then the aligned
   chunks, a partial one only when it forms the file's tail; an
   unaligned write drops the file's blocks.  Readahead submitted before
   the write carries the old bytes and attributes, so it is dropped
   rather than claimed over the new blocks. *)
let note_written (t : t) (h : fh) ~(off : int) (data : string) (a : fattr) : unit =
  drop_inflight t h;
  note_attr t h a;
  if off mod block_size = 0 then note_chunks t h ~off ~ends_file:(off + String.length data = a.size) data
  else drop_blocks t h

(* Push the gather buffer to the server as one unstable WRITE.  A
   transport fault propagates to whoever triggered the flush — the same
   recovery (retransmit / reconnect / re-auth) a synchronous write rides.
   A server-side error drops our now-unreliable cached blocks; the
   serial client would have surfaced it to the writer, but either way
   the server state is "that write did not happen".  A no-op without
   write-behind, which never sets [wbuf]. *)
let flush_dirty (t : t) : unit =
  match t.wbuf with
  | None -> ()
  | Some w ->
      t.wbuf <- None;
      let data = Buffer.contents t.gather in
      Buffer.clear t.gather;
      if data <> "" then begin
        Obs.incr t.obs "cache.wb.flush";
        match t.inner.Fs_intf.fs_write w.wb_cred w.wb_fh ~off:w.wb_off ~stable:false data with
        | Ok a -> note_written t w.wb_fh ~off:w.wb_off data a
        | Error _ -> drop_blocks t w.wb_fh
      end

let flush_for (t : t) (h : fh) : unit =
  match t.wbuf with Some w when w.wb_fh = h -> flush_dirty t | _ -> ()

(* --- Readahead --- *)

(* Await submitted block reads covering the demanded blocks; successful
   replies land in the block cache as the very string the reply decoded
   (turning this read into a hit), failures are ignored — the
   synchronous path will re-fetch and recover. *)
let claim_inflight (t : t) (h : fh) (first : int) (last : int) : unit =
  for b = first to last do
    match Hashtbl.find_opt t.inflight (h, b) with
    | None -> ()
    | Some thunk -> (
        Hashtbl.remove t.inflight (h, b);
        match thunk () with
        | Ok (data, eof, a) ->
            note_attr t h a;
            let len = String.length data in
            if len > 0 && (len = block_size || eof) then note_block t h b data
        | Error _ | exception _ -> ())
  done

(* Track sequential consumption per handle: the run length of
   consecutive block-adjacent reads. *)
let note_seq (t : t) (h : fh) (first : int) (last : int) : int =
  let run =
    match Hashtbl.find_opt t.last_read h with
    | Some (prev, r) when first = prev + 1 -> r + 1
    | Some (prev, r) when first = prev -> r
    | _ -> 1
  in
  Hashtbl.replace t.last_read h (last, run);
  run

(* Keep [pl_depth] blocks of readahead submitted beyond [next - 1],
   skipping blocks already cached or in flight and never reading past
   the (fresh) known size. *)
let top_up (t : t) (cred : Simos.cred) (h : fh) ~(next : int) : unit =
  match (t.pipeline, fresh_attr t h) with
  | Some pl, Some a when pl.Fs_intf.pl_depth > 0 ->
      for b = next to next + pl.Fs_intf.pl_depth - 1 do
        if
          b * block_size < a.size
          && (not (Lru.mem t.blocks (h, b)))
          && not (Hashtbl.mem t.inflight (h, b))
        then begin
          let thunk = pl.Fs_intf.pl_submit cred h ~off:(b * block_size) ~count:block_size in
          Obs.incr t.obs "cache.readahead.submit";
          Hashtbl.replace t.inflight (h, b) thunk
        end
      done
  | _ -> ()

(* Serve a read out of cached blocks, bounded by the fresh size in
   [a].  A read of exactly one cached block from its start returns the
   stored string itself; any other read is assembled into one
   allocation of exactly the reply's length, filled straight from the
   cached blocks.  [None] when a needed block is missing or short (the
   caller goes to the wire).  Recency is not touched: a hit is not a
   use. *)
let copy_out (t : t) (h : fh) (a : fattr) ~(off : int) ~(count : int) : (string * bool * fattr) option =
  let n = min count (max 0 (a.size - off)) in
  let eof = off + n >= a.size in
  match Lru.peek t.blocks (h, off / block_size) with
  | Some data when off mod block_size = 0 && String.length data = n -> Some (data, eof, a)
  | _ ->
      let out = Bytes.create n in (* sfslint: allow SL013 — a read that cuts or spans cached blocks is assembled into the one string its caller gets *)
      let rec fill filled =
        filled >= n
        ||
        let pos = off + filled in
        let b = pos / block_size in
        match Lru.peek t.blocks (h, b) with
        | None -> false
        | Some data ->
            let block_off = pos - (b * block_size) in
            block_off < String.length data
            &&
            let take = min (String.length data - block_off) (n - filled) in
            Bytes.blit_string data block_off out filled take;
            fill (filled + take)
      in
      if fill 0 then Some (Bytes.unsafe_to_string out, eof, a) else None

(* Submit the demanded blocks through the windowed dispatcher, top the
   readahead window up behind them so everything overlaps, then claim
   the demanded ones like any readahead and copy the read out of the
   cache.  [None] when that fails: the caller falls back to the
   synchronous read, whose recovery path handles transport faults
   (reads are idempotent). *)
let fetch_pipelined (t : t) (cred : Simos.cred) (h : fh) ~(off : int) ~(count : int)
    ~(first : int) ~(last : int) : (string * bool * fattr) option =
  match t.pipeline with
  | None -> None
  | Some pl ->
      for b = first to last do
        if not (Lru.mem t.blocks (h, b)) then
          Hashtbl.replace t.inflight (h, b)
            (pl.Fs_intf.pl_submit cred h ~off:(b * block_size) ~count:block_size)
      done;
      top_up t cred h ~next:(last + 1);
      claim_inflight t h first last;
      Option.bind (fresh_attr t h) (fun a -> copy_out t h a ~off ~count)

(* Each syscall-level entry point is a trace root: a fresh trace id is
   allocated on the way in, and everything underneath — cache
   bookkeeping, the client's per-RPC op spans, even the server's
   dispatch (adopted via the wire annex) — attaches to it as a child
   (DESIGN.md §13). *)
let rooted (obs : Obs.registry option) (o : Fs_intf.ops) : Fs_intf.ops =
  let r name f = Obs.span_root obs ~cat:"op" name f in
  {
    Fs_intf.fs_root = o.Fs_intf.fs_root;
    fs_getattr = (fun c h -> r "getattr" (fun () -> o.Fs_intf.fs_getattr c h));
    fs_setattr = (fun c h s -> r "setattr" (fun () -> o.Fs_intf.fs_setattr c h s));
    fs_lookup = (fun c ~dir n -> r "lookup" (fun () -> o.Fs_intf.fs_lookup c ~dir n));
    fs_access = (fun c h w -> r "access" (fun () -> o.Fs_intf.fs_access c h w));
    fs_readlink = (fun c h -> r "readlink" (fun () -> o.Fs_intf.fs_readlink c h));
    fs_read = (fun c h ~off ~count -> r "read" (fun () -> o.Fs_intf.fs_read c h ~off ~count));
    fs_write =
      (fun c h ~off ~stable d -> r "write" (fun () -> o.Fs_intf.fs_write c h ~off ~stable d));
    fs_create = (fun c ~dir n ~mode -> r "create" (fun () -> o.Fs_intf.fs_create c ~dir n ~mode));
    fs_mkdir = (fun c ~dir n ~mode -> r "mkdir" (fun () -> o.Fs_intf.fs_mkdir c ~dir n ~mode));
    fs_symlink =
      (fun c ~dir n ~target -> r "symlink" (fun () -> o.Fs_intf.fs_symlink c ~dir n ~target));
    fs_remove = (fun c ~dir n -> r "remove" (fun () -> o.Fs_intf.fs_remove c ~dir n));
    fs_rmdir = (fun c ~dir n -> r "rmdir" (fun () -> o.Fs_intf.fs_rmdir c ~dir n));
    fs_rename =
      (fun c ~from_dir ~from_name ~to_dir ~to_name ->
        r "rename" (fun () -> o.Fs_intf.fs_rename c ~from_dir ~from_name ~to_dir ~to_name));
    fs_link = (fun c ~target ~dir n -> r "link" (fun () -> o.Fs_intf.fs_link c ~target ~dir n));
    fs_readdir = (fun c h -> r "readdir" (fun () -> o.Fs_intf.fs_readdir c h));
    fs_commit = (fun c h -> r "commit" (fun () -> o.Fs_intf.fs_commit c h));
    fs_fsstat = (fun c h -> r "fsstat" (fun () -> o.Fs_intf.fs_fsstat c h));
  }

let ops (t : t) : Fs_intf.ops =
  let inner = t.inner in
  let getattr cred h =
    drain_invalidations t;
    (* A fresh cached attribute already reflects the write-behind
       buffer (its size is updated as the buffer grows); only a miss
       with dirty data must flush first, or the server would answer
       with the pre-buffer size. *)
    if fresh_attr t h = None then flush_for t h;
    match fresh_attr t h with
    | Some a ->
        Obs.incr t.obs "cache.attr.hit";
        charge_hit t 64;
        Ok a
    | None ->
        Obs.incr t.obs "cache.attr.miss";
        let* a = inner.Fs_intf.fs_getattr cred h in
        note_attr t h a;
        Ok a
  in
  let lookup_miss cred ~dir name =
    Obs.incr t.obs "cache.name.miss";
    match inner.Fs_intf.fs_lookup cred ~dir name with
    | Ok (h, a) as r ->
        note_attr t h a;
        note_name t ~uid:cred.Simos.cred_uid ~dir name h a;
        r
    | Error NFS3ERR_NOENT when t.policy.use_leases ->
        (* Negative caching under the directory's lease: the name
           cannot appear without a callback on the dir. *)
        Hashtbl.replace t.negatives (dir, name) (expiry_us t (fresh_attr t dir), cred.Simos.cred_uid);
        Error NFS3ERR_NOENT
    | Error _ as r -> r
  in
  (* Our own mutations keep leases valid for us (the server only calls
     back other holders); NFS-style caching conservatively drops the
     directory's attributes. *)
  let dir_changed dir = if not t.policy.use_leases then Hashtbl.remove t.attrs dir in
  let made cred ~dir name = function
    | Ok (h, a) as r ->
        dir_changed dir;
        note_attr t h a;
        note_name t ~uid:cred.Simos.cred_uid ~dir name h a;
        r
    | Error _ as r -> r
  in
  let gone ~dir name =
    Hashtbl.remove t.names (dir, name);
    dir_changed dir
  in
  rooted t.obs
  {
    Fs_intf.fs_root = inner.Fs_intf.fs_root;
    fs_getattr = getattr;
    fs_setattr =
      (fun cred h s ->
        drain_invalidations t;
        flush_for t h;
        let* a = inner.Fs_intf.fs_setattr cred h s in
        invalidate_fh t h;
        note_attr t h a;
        Ok a);
    fs_lookup =
      (fun cred ~dir name ->
        drain_invalidations t;
        let now = Simclock.now_us t.clock in
        match Hashtbl.find_opt t.negatives (dir, name) with
        | Some (expires, uid) when expires > now && may_search t cred ~dir ~uid ->
            Obs.incr t.obs "cache.neg.hit";
            charge_hit t 64;
            Error NFS3ERR_NOENT
        | _ -> (
            (* A name hit also needs the target's attributes fresh. *)
            match Hashtbl.find_opt t.names (dir, name) with
            | Some (target, expires, uid) when expires > now && may_search t cred ~dir ~uid -> (
                match fresh_attr t target with
                | Some a ->
                    Obs.incr t.obs "cache.name.hit";
                    charge_hit t 64;
                    Ok (target, a)
                | None -> lookup_miss cred ~dir name)
            | _ -> lookup_miss cred ~dir name));
    fs_access =
      (fun cred h want ->
        drain_invalidations t;
        (* Access caching: results are remembered per (handle, uid,
           mask) for the lease/TTL window — SFS's enhanced access
           caching (section 4.2). *)
        let key = (h, cred.Simos.cred_uid, want) in
        match Hashtbl.find_opt t.access_cache key with
        | Some (granted, expiry) when expiry > Simclock.now_us t.clock ->
            Obs.incr t.obs "cache.access.hit";
            charge_hit t 64;
            Ok granted
        | _ ->
            Obs.incr t.obs "cache.access.miss";
            let* granted = inner.Fs_intf.fs_access cred h want in
            Hashtbl.replace t.access_cache key (granted, expiry_us t (fresh_attr t h));
            Ok granted);
    fs_readlink = (fun cred h -> inner.Fs_intf.fs_readlink cred h);
    fs_read =
      (fun cred h ~off ~count ->
        drain_invalidations t;
        flush_for t h;
        (* Whole-block caching: a read is a hit when every covered block
           is cached and attributes are fresh. *)
        let first = off / block_size and last = if count = 0 then off / block_size else (off + count - 1) / block_size in
        (* Replies from earlier readahead land in the block cache first,
           so a prefetched block is an ordinary hit below. *)
        if t.pipeline <> None then claim_inflight t h first last;
        let run = if t.pipeline <> None then note_seq t h first last else 0 in
        let cached =
          match fresh_attr t h with
          | Some a ->
              let rec all b = b > last || (Lru.mem t.blocks (h, b) && all (b + 1)) in
              if all first then Some a else None
          | None -> None
        in
        let miss () =
          Obs.incr t.obs "cache.read.miss";
          match
            if run >= readahead_min_run then fetch_pipelined t cred h ~off ~count ~first ~last
            else None
          with
          | Some r ->
              charge_hit t count;
              Ok r
          | None ->
              let* data, eof, a = inner.Fs_intf.fs_read cred h ~off ~count in
              note_attr t h a;
              note_chunks t h ~off ~ends_file:eof data;
              Ok (data, eof, a)
        in
        match cached with
        | Some a when not (may cred a ~want:4) -> Error NFS3ERR_ACCES
        | Some a -> (
            match copy_out t h a ~off ~count with
            | Some r ->
                Obs.incr t.obs "cache.read.hit";
                charge_hit t count;
                (* Keep the window full behind a sequential consumer. *)
                if run >= readahead_min_run then top_up t cred h ~next:(last + 1);
                Ok r
            | None -> miss ())
        | None -> miss ());
    fs_write =
      (fun cred h ~off ~stable data ->
        drain_invalidations t;
        (* A write to a different file flushes the (single) gather
           buffer, preserving server-visible write order. *)
        (match t.wbuf with Some w when w.wb_fh <> h -> flush_dirty t | _ -> ());
        let write_through () =
          let* a = inner.Fs_intf.fs_write cred h ~off ~stable data in
          (* Write-through with local block update; attributes first, so
             the mtime change does not evict the blocks we are adding.
             Partial chunks are cacheable when they form the file's tail
             (the read path bounds hits by the cached size). *)
          note_written t h ~off data a;
          Ok a
        in
        (* Predicted post-write attributes: the cached entry with its
           size extended over the buffered extent.  Updating the stored
           entry keeps getattr and the readahead size bound honest
           without contacting the server. *)
        let predict (w : wbuf) : fattr option =
          match Hashtbl.find_opt t.attrs h with
          | Some e ->
              let extent = w.wb_off + Buffer.length t.gather in
              let a = if extent > e.attr.size then { e.attr with size = extent } else e.attr in
              Hashtbl.replace t.attrs h { e with attr = a };
              Some a
          | None -> None
        in
        (* Append to the live run; flush it at the gather threshold. *)
        let buffer (w : wbuf) =
          Buffer.add_string t.gather data;
          Obs.add t.obs "cache.wb.bytes" (String.length data);
          match predict w with
          | Some a ->
              if Buffer.length t.gather >= gather_bytes then flush_dirty t;
              Ok a
          | None ->
              (* No cached attributes to predict from: give up on
                 buffering this run. *)
              flush_dirty t;
              inner.Fs_intf.fs_getattr cred h
        in
        if stable || not t.write_behind then begin
          flush_for t h;
          write_through ()
        end
        else begin
          match t.wbuf with
          | Some w
            when w.wb_fh = h && w.wb_cred = cred && off = w.wb_off + Buffer.length t.gather ->
              buffer w
          | other -> (
              (* Non-contiguous, different user, or nothing buffered:
                 flush, and start a fresh run when there are cached
                 attributes to predict from. *)
              (match other with Some _ -> flush_dirty t | None -> ());
              match fresh_attr t h with
              | None -> write_through ()
              | Some _ ->
                  let w = { wb_fh = h; wb_off = off; wb_cred = cred } in
                  t.wbuf <- Some w;
                  buffer w)
        end);
    fs_create =
      (fun cred ~dir name ~mode ->
        drain_invalidations t;
        made cred ~dir name (inner.Fs_intf.fs_create cred ~dir name ~mode));
    fs_mkdir =
      (fun cred ~dir name ~mode -> made cred ~dir name (inner.Fs_intf.fs_mkdir cred ~dir name ~mode));
    fs_symlink =
      (fun cred ~dir name ~target -> made cred ~dir name (inner.Fs_intf.fs_symlink cred ~dir name ~target));
    fs_remove =
      (fun cred ~dir name ->
        flush_dirty t;
        let* () = inner.Fs_intf.fs_remove cred ~dir name in
        Ok (gone ~dir name));
    fs_rmdir =
      (fun cred ~dir name ->
        flush_dirty t;
        let* () = inner.Fs_intf.fs_rmdir cred ~dir name in
        Ok (gone ~dir name));
    fs_rename =
      (fun cred ~from_dir ~from_name ~to_dir ~to_name ->
        flush_dirty t;
        let* () = inner.Fs_intf.fs_rename cred ~from_dir ~from_name ~to_dir ~to_name in
        gone ~dir:from_dir from_name;
        Hashtbl.remove t.negatives (to_dir, to_name);
        Ok (gone ~dir:to_dir to_name));
    fs_link =
      (fun cred ~target ~dir name ->
        let* a = inner.Fs_intf.fs_link cred ~target ~dir name in
        dir_changed dir;
        Hashtbl.remove t.negatives (dir, name);
        note_attr t target a;
        Ok a);
    fs_readdir =
      (fun cred h ->
        drain_invalidations t;
        let* entries = inner.Fs_intf.fs_readdir cred h in
        (* READDIRPLUS feeds the attribute and name caches.  It needs
           only read permission, so the names are search evidence for
           [cred] only when the directory's fresh attributes grant it. *)
        let uid =
          match fresh_attr t h with
          | Some d when may cred d ~want:1 -> cred.Simos.cred_uid
          | _ -> no_searcher
        in
        List.iter
          (fun de ->
            note_attr t de.d_fh de.d_attr;
            note_name t ~uid ~dir:h de.d_name de.d_fh de.d_attr)
          entries;
        Ok entries);
    fs_commit =
      (fun cred h ->
        (* The deferred COMMIT: dirty data goes out as one gather-WRITE
           first, then the commit covers it. *)
        flush_for t h;
        inner.Fs_intf.fs_commit cred h);
    fs_fsstat = (fun cred h -> inner.Fs_intf.fs_fsstat cred h);
  }
