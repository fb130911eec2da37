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
module Slice = Sfs_util.Slice
module Lru = Sfs_util.Lru

type policy = {
  attr_ttl_s : float; (* fixed attribute timeout when no lease is used *)
  use_leases : bool; (* trust per-attribute lease fields + callbacks *)
  data_cache_bytes : int;
  memcpy_bytes_per_us : float; (* cost of serving a hit *)
}

let nfs_policy =
  { attr_ttl_s = 3.0; use_leases = false; data_cache_bytes = 25 * 1024 * 1024; memcpy_bytes_per_us = 400.0 }

let sfs_policy =
  { attr_ttl_s = 3.0; use_leases = true; data_cache_bytes = 25 * 1024 * 1024; memcpy_bytes_per_us = 400.0 }

let block_size = 8192

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
  inflight : (fh * int, unit -> (Slice.t * bool * fattr) res) Hashtbl.t;
  (* submitted readahead, by block; claimed (awaited) on the next read *)
  last_read : (fh, int * int) Hashtbl.t; (* last block read, run length *)
  mutable wbuf : wbuf option;
  gather : Buffer.t; (* the live run's bytes; cleared, not freed, by each flush *)
  attrs : (fh, attr_entry) Hashtbl.t;
  names : (fh * string, (fh * float) (* target, expiry *)) Hashtbl.t;
  access_cache : (fh * int * int, int * float) Hashtbl.t; (* (fh, uid, mask) -> granted, expiry *)
  negatives : (fh * string, float) Hashtbl.t; (* lease-backed negative lookups *)
  (* Block data is stored as slices: on the zero-copy transports these
     are views into the opened wire frame (no per-block copy between
     the channel and here); elsewhere they wrap whole strings for
     free. *)
  blocks : (fh * int, Slice.t) Lru.t;
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
    access_cache = Hashtbl.create 16;
    negatives = Hashtbl.create 16;
    blocks = Lru.create 16;
    cached_bytes = 0;
  }

let drop_blocks (t : t) (h : fh) : unit =
  let doomed = Lru.fold (fun (f, b) data acc -> if f = h then ((f, b), data) :: acc else acc) t.blocks [] in
  List.iter
    (fun (k, data) ->
      t.cached_bytes <- t.cached_bytes - Slice.length data;
      Lru.remove t.blocks k)
    doomed

let drop_access (t : t) (h : fh) : unit =
  let doomed =
    Hashtbl.fold (fun (f, u, m) _ acc -> if f = h then (f, u, m) :: acc else acc) t.access_cache []
  in
  List.iter (Hashtbl.remove t.access_cache) doomed

(* Abandon submitted readahead for a handle: the replies are simply
   never awaited (the dispatcher force-completes their tickets under
   window pressure, as a real client would discard stale replies).
   Every write calls this, so the common empty table costs no scan. *)
let drop_inflight (t : t) (h : fh) : unit =
  if Hashtbl.length t.inflight > 0 then
    let doomed =
      Hashtbl.fold (fun (f, b) _ acc -> if f = h then (f, b) :: acc else acc) t.inflight []
    in
    List.iter (Hashtbl.remove t.inflight) doomed

let invalidate_fh (t : t) (h : fh) : unit =
  Hashtbl.remove t.attrs h;
  drop_access t h;
  drop_blocks t h;
  drop_inflight t h;
  Hashtbl.remove t.last_read h;
  (* Name entries pointing into or out of this handle go too. *)
  let doomed =
    Hashtbl.fold (fun (d, n) (tgt, _) acc -> if d = h || tgt = h then (d, n) :: acc else acc) t.names []
  in
  List.iter (Hashtbl.remove t.names) doomed;
  let doomed_neg = Hashtbl.fold (fun (d, n) _ acc -> if d = h then (d, n) :: acc else acc) t.negatives [] in
  List.iter (Hashtbl.remove t.negatives) doomed_neg

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
  Simclock.advance t.clock (float_of_int (max bytes 64) /. t.policy.memcpy_bytes_per_us)

(* Remember attributes; the expiry honours the lease when present and
   trusted, else the fixed TTL. *)
let note_attr (t : t) (h : fh) (a : fattr) : unit =
  let now = Simclock.now_us t.clock in
  let ttl_s =
    if t.policy.use_leases && a.lease > 0 then float_of_int a.lease else t.policy.attr_ttl_s
  in
  (* Data cache consistency: newer mtime invalidates cached blocks. *)
  (match Hashtbl.find_opt t.attrs h with
  | Some old when time_compare old.attr.mtime a.mtime <> 0 -> drop_blocks t h
  | _ -> ());
  Hashtbl.replace t.attrs h { attr = a; expires_us = now +. (ttl_s *. 1_000_000.0) }

let fresh_attr (t : t) (h : fh) : attr_entry option =
  match Hashtbl.find_opt t.attrs h with
  | Some e when e.expires_us > Simclock.now_us t.clock -> Some e
  | _ -> None

let rec evict_blocks_if_needed (t : t) : unit =
  if t.cached_bytes > t.policy.data_cache_bytes then
    match Lru.pop_lru t.blocks with
    | Some (_, data) ->
        t.cached_bytes <- t.cached_bytes - Slice.length data;
        evict_blocks_if_needed t
    | None -> t.cached_bytes <- 0

let note_block (t : t) (h : fh) (block : int) (data : Slice.t) : unit =
  (match Lru.peek t.blocks (h, block) with
  | Some old -> t.cached_bytes <- t.cached_bytes - Slice.length old
  | None -> ());
  Lru.replace t.blocks (h, block) data;
  t.cached_bytes <- t.cached_bytes + Slice.length data;
  evict_blocks_if_needed t

(* Name-cache entry lifetime: under leases a directory entry cannot
   change without a server callback, so names live as long as the
   accompanying attribute lease; NFS-style caching uses the fixed TTL. *)
let name_ttl_s (t : t) (a : fattr) : float =
  if t.policy.use_leases && a.lease > 0 then float_of_int a.lease else t.policy.attr_ttl_s

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

let ( let* ) = Result.bind

(* --- Write-behind --- *)

(* Cache what a write (direct or flushed) put on the server: attributes
   first (the mtime change evicts stale blocks), then the aligned
   chunks, partial ones only when they form the file's tail.  Readahead
   submitted before the write carries the old bytes and attributes, so
   it is dropped rather than claimed over the new blocks. *)
let note_written (t : t) (h : fh) ~(off : int) (data : string) (a : fattr) : unit =
  drop_inflight t h;
  note_attr t h a;
  if off mod block_size = 0 then
    List.iteri
      (fun i chunk ->
        let chunk_off = off + (i * block_size) in
        if String.length chunk = block_size || chunk_off + String.length chunk = a.size then
          note_block t h (chunk_off / block_size) (Slice.of_string chunk))
      (Sfs_util.Bytesutil.chunks ~size:block_size data)
  else drop_blocks t h

(* Push the gather buffer to the server as one unstable WRITE.  A
   transport fault propagates to whoever triggered the flush — the same
   recovery (retransmit / reconnect / re-auth) a synchronous write rides.
   A server-side error drops our now-unreliable cached blocks; the
   serial client would have surfaced it to the writer, but either way
   the server state is "that write did not happen". *)
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

(* Await previously submitted readahead covering the demanded blocks;
   successful replies feed the block cache (turning this read into a
   hit), failures are ignored — the synchronous path will re-fetch and
   recover. *)
let claim_inflight (t : t) (h : fh) (first : int) (last : int) : unit =
  for b = first to last do
    match Hashtbl.find_opt t.inflight (h, b) with
    | None -> ()
    | Some thunk -> (
        Hashtbl.remove t.inflight (h, b);
        match thunk () with
        | Ok (data, eof, a) ->
            note_attr t h a;
            if (not (Slice.is_empty data)) && (Slice.length data = block_size || eof) then
              note_block t h b data
        | Error _ -> ()
        | exception _ -> ())
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
  | Some pl, Some e when pl.Fs_intf.pl_depth > 0 ->
      let size = e.attr.size in
      for b = next to next + pl.Fs_intf.pl_depth - 1 do
        if
          b * block_size < size
          && (not (Lru.mem t.blocks (h, b)))
          && not (Hashtbl.mem t.inflight (h, b))
        then begin
          let thunk = pl.Fs_intf.pl_submit cred h ~off:(b * block_size) ~count:block_size in
          Obs.incr t.obs "cache.readahead.submit";
          Hashtbl.replace t.inflight (h, b) thunk
        end
      done
  | _ -> ()

(* Copy a read out of cached blocks, bounded by the fresh size in [e]:
   one allocation of exactly the reply's length, filled straight from
   the cached slices.  [None] when a needed block is missing or short
   (the caller goes to the wire).  Recency is not touched: a hit is not
   a use. *)
let copy_out (t : t) (h : fh) (e : attr_entry) ~(off : int) ~(count : int) :
    (string * bool * fattr) option =
  let size = e.attr.size in
  let n = min count (max 0 (size - off)) in
  let out = Bytes.create n in
  let rec fill filled =
    filled >= n
    ||
    let pos = off + filled in
    let b = pos / block_size in
    match Lru.peek t.blocks (h, b) with
    | None -> false
    | Some data ->
        let block_off = pos - (b * block_size) in
        block_off < Slice.length data
        &&
        let take = min (Slice.length data - block_off) (n - filled) in
        Slice.blit data ~src_off:block_off out ~dst_off:filled ~len:take;
        fill (filled + take)
  in
  if fill 0 then Some (Bytes.unsafe_to_string out, off + n >= size, e.attr) else None

(* Serve a read from cached blocks; [None] when anything needed is
   missing. *)
let serve_cached (t : t) (h : fh) ~(off : int) ~(count : int) : (string * bool * fattr) option =
  match fresh_attr t h with
  | None -> None
  | Some e -> (
      match copy_out t h e ~off ~count with
      | Some _ as r ->
          charge_hit t count;
          r
      | None -> None)

(* Fetch the demanded blocks through the windowed dispatcher, top the
   readahead window up behind them so everything overlaps, then await
   the demanded ones and serve from cache.  Any failure returns
   [None]: the caller falls back to the synchronous read, whose
   recovery path handles transport faults (reads are idempotent). *)
let fetch_pipelined (t : t) (cred : Simos.cred) (h : fh) ~(off : int) ~(count : int)
    ~(first : int) ~(last : int) : (string * bool * fattr) option =
  match t.pipeline with
  | None -> None
  | Some pl ->
      let fg =
        List.init
          (last - first + 1)
          (fun i ->
            let b = first + i in
            if Lru.mem t.blocks (h, b) then None
            else Some (b, pl.Fs_intf.pl_submit cred h ~off:(b * block_size) ~count:block_size))
      in
      top_up t cred h ~next:(last + 1);
      let ok =
        List.for_all
          (function
            | Some (b, thunk) -> (
                match thunk () with
                | Ok (data, eof, a) ->
                    note_attr t h a;
                    if (not (Slice.is_empty data)) && (Slice.length data = block_size || eof) then
                      note_block t h b data;
                    true
                | Error _ -> false
                | exception _ -> false)
            | None -> true)
          fg
      in
      if ok then serve_cached t h ~off ~count else None

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
    if t.write_behind && fresh_attr t h = None then flush_for t h;
    match fresh_attr t h with
    | Some e ->
        Obs.incr t.obs "cache.attr.hit";
        charge_hit t 64;
        Ok e.attr
    | None ->
        Obs.incr t.obs "cache.attr.miss";
        let* a = inner.Fs_intf.fs_getattr cred h in
        note_attr t h a;
        Ok a
  in
  rooted t.obs
  {
    Fs_intf.fs_root = inner.Fs_intf.fs_root;
    fs_getattr = getattr;
    fs_setattr =
      (fun cred h s ->
        drain_invalidations t;
        if t.write_behind then flush_for t h;
        let* a = inner.Fs_intf.fs_setattr cred h s in
        invalidate_fh t h;
        note_attr t h a;
        Ok a);
    fs_lookup =
      (fun cred ~dir name ->
        drain_invalidations t;
        match Hashtbl.find_opt t.negatives (dir, name) with
        | Some expiry when t.policy.use_leases && expiry > Simclock.now_us t.clock ->
            Obs.incr t.obs "cache.neg.hit";
            charge_hit t 64;
            Error NFS3ERR_NOENT
        | _ -> (
        match Hashtbl.find_opt t.names (dir, name) with
        | Some (target, expires) when expires > Simclock.now_us t.clock -> (
            (* Serve the lookup from cache when the target's attributes
               are also fresh — but only for users the cached directory
               attributes let traverse. *)
            match (fresh_attr t target, fresh_attr t dir) with
            | Some e, Some d when not (may cred d.attr ~want:1) ->
                ignore e;
                charge_hit t 64;
                Error NFS3ERR_ACCES
            | Some e, _ ->
                Obs.incr t.obs "cache.name.hit";
                charge_hit t 64;
                Ok (target, e.attr)
            | None, _ ->
                Obs.incr t.obs "cache.name.miss";
                let* h, a = inner.Fs_intf.fs_lookup cred ~dir name in
                note_attr t h a;
                Hashtbl.replace t.names (dir, name)
                  (h, Simclock.now_us t.clock +. (name_ttl_s t a *. 1_000_000.0));
                Ok (h, a))
        | _ -> (
            Obs.incr t.obs "cache.name.miss";
            match inner.Fs_intf.fs_lookup cred ~dir name with
            | Ok (h, a) ->
                note_attr t h a;
                Hashtbl.replace t.names (dir, name)
                  (h, Simclock.now_us t.clock +. (name_ttl_s t a *. 1_000_000.0));
                Ok (h, a)
            | Error NFS3ERR_NOENT when t.policy.use_leases ->
                (* Negative caching under the directory's lease: the
                   name cannot appear without a callback on the dir. *)
                let ttl_s =
                  match fresh_attr t dir with
                  | Some e when e.attr.lease > 0 -> float_of_int e.attr.lease
                  | _ -> t.policy.attr_ttl_s
                in
                Hashtbl.replace t.negatives (dir, name)
                  (Simclock.now_us t.clock +. (ttl_s *. 1_000_000.0));
                Error NFS3ERR_NOENT
            | Error e -> Error e)));
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
            let ttl_s =
              match fresh_attr t h with
              | Some e when t.policy.use_leases && e.attr.lease > 0 -> float_of_int e.attr.lease
              | _ -> t.policy.attr_ttl_s
            in
            Hashtbl.replace t.access_cache key
              (granted, Simclock.now_us t.clock +. (ttl_s *. 1_000_000.0));
            Ok granted);
    fs_readlink = (fun cred h -> inner.Fs_intf.fs_readlink cred h);
    fs_read =
      (fun cred h ~off ~count ->
        drain_invalidations t;
        if t.write_behind then flush_for t h;
        (* Whole-block caching: a read is a hit when every covered block
           is cached and attributes are fresh. *)
        let first = off / block_size and last = if count = 0 then off / block_size else (off + count - 1) / block_size in
        (* Replies from earlier readahead land in the block cache first,
           so a prefetched block is an ordinary hit below. *)
        if t.pipeline <> None then claim_inflight t h first last;
        let run = if t.pipeline <> None then note_seq t h first last else 0 in
        let cached =
          match fresh_attr t h with
          | Some e ->
              let rec all b = b > last || (Lru.mem t.blocks (h, b) && all (b + 1)) in
              if all first then Some e else None
          | None -> None
        in
        let miss () =
          Obs.incr t.obs "cache.read.miss";
          match
            if run >= readahead_min_run then fetch_pipelined t cred h ~off ~count ~first ~last
            else None
          with
          | Some r -> Ok r
          | None ->
              let* data, eof, a = inner.Fs_intf.fs_read cred h ~off ~count in
              note_attr t h a;
              (* Cache only block-aligned full coverage to keep bookkeeping
                 simple; partial tail blocks are cached on eof. *)
              if off mod block_size = 0 then begin
                List.iteri
                  (fun i chunk ->
                    if String.length chunk = block_size || eof then
                      note_block t h ((off / block_size) + i) (Slice.of_string chunk))
                  (Sfs_util.Bytesutil.chunks ~size:block_size data)
              end;
              Ok (data, eof, a)
        in
        match cached with
        | Some e when not (may cred e.attr ~want:4) -> Error NFS3ERR_ACCES
        | Some e -> (
            match copy_out t h e ~off ~count with
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
        if not (t.write_behind && not stable) then begin
          if t.write_behind then flush_for t h;
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
        let* h, a = inner.Fs_intf.fs_create cred ~dir name ~mode in
        (* Our own mutation: leases stay valid for us (the server only
           calls back other holders); NFS-style caching conservatively
           drops the directory entry. *)
        if not t.policy.use_leases then Hashtbl.remove t.attrs dir;
        note_attr t h a;
        Hashtbl.remove t.negatives (dir, name);
        Hashtbl.replace t.names (dir, name) (h, Simclock.now_us t.clock +. (name_ttl_s t a *. 1_000_000.0));
        Ok (h, a));
    fs_mkdir =
      (fun cred ~dir name ~mode ->
        let* h, a = inner.Fs_intf.fs_mkdir cred ~dir name ~mode in
        if not t.policy.use_leases then Hashtbl.remove t.attrs dir;
        note_attr t h a;
        Hashtbl.remove t.negatives (dir, name);
        Hashtbl.replace t.names (dir, name) (h, Simclock.now_us t.clock +. (name_ttl_s t a *. 1_000_000.0));
        Ok (h, a));
    fs_symlink =
      (fun cred ~dir name ~target ->
        let* h, a = inner.Fs_intf.fs_symlink cred ~dir name ~target in
        if not t.policy.use_leases then Hashtbl.remove t.attrs dir;
        note_attr t h a;
        Hashtbl.remove t.negatives (dir, name);
        Hashtbl.replace t.names (dir, name) (h, Simclock.now_us t.clock +. (name_ttl_s t a *. 1_000_000.0));
        Ok (h, a));
    fs_remove =
      (fun cred ~dir name ->
        if t.write_behind then flush_dirty t;
        let* () = inner.Fs_intf.fs_remove cred ~dir name in
        Hashtbl.remove t.names (dir, name);
        if not t.policy.use_leases then Hashtbl.remove t.attrs dir;
        Ok ());
    fs_rmdir =
      (fun cred ~dir name ->
        if t.write_behind then flush_dirty t;
        let* () = inner.Fs_intf.fs_rmdir cred ~dir name in
        Hashtbl.remove t.names (dir, name);
        if not t.policy.use_leases then Hashtbl.remove t.attrs dir;
        Ok ());
    fs_rename =
      (fun cred ~from_dir ~from_name ~to_dir ~to_name ->
        if t.write_behind then flush_dirty t;
        let* () = inner.Fs_intf.fs_rename cred ~from_dir ~from_name ~to_dir ~to_name in
        Hashtbl.remove t.names (from_dir, from_name);
        Hashtbl.remove t.names (to_dir, to_name);
        Hashtbl.remove t.negatives (to_dir, to_name);
        if not t.policy.use_leases then begin
          Hashtbl.remove t.attrs from_dir;
          Hashtbl.remove t.attrs to_dir
        end;
        Ok ());
    fs_link =
      (fun cred ~target ~dir name ->
        let* a = inner.Fs_intf.fs_link cred ~target ~dir name in
        if not t.policy.use_leases then Hashtbl.remove t.attrs dir;
        Hashtbl.remove t.negatives (dir, name);
        note_attr t target a;
        Ok a);
    fs_readdir =
      (fun cred h ->
        drain_invalidations t;
        let* entries = inner.Fs_intf.fs_readdir cred h in
        (* READDIRPLUS feeds the attribute and name caches. *)
        List.iter
          (fun de ->
            note_attr t de.d_fh de.d_attr;
            Hashtbl.replace t.names (h, de.d_name)
              (de.d_fh, Simclock.now_us t.clock +. (name_ttl_s t de.d_attr *. 1_000_000.0)))
          entries;
        Ok entries);
    fs_commit =
      (fun cred h ->
        (* The deferred COMMIT: dirty data goes out as one gather-WRITE
           first, then the commit covers it. *)
        if t.write_behind then flush_for t h;
        inner.Fs_intf.fs_commit cred h);
    fs_fsstat = (fun cred h -> inner.Fs_intf.fs_fsstat cred h);
  }
