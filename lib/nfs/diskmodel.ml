(* Disk and buffer-cache timing model.

   Models the paper testbed's IBM 18ES 9 GB SCSI disk behind an
   FFS-style buffer cache.  The paper notes "disk seeks push throughput
   below 1 Mbyte/sec on anything but sequential accesses" (section 4.2)
   and that the Sprite LFS unlink phase is "almost completely dominated
   by synchronous writes to the disk" — those are the behaviours this
   model charges for:

   - a cache hit costs only a memory copy;
   - a miss costs a positioning delay (seek + rotation), amortized away
     when the access continues a sequential run on the same file;
   - asynchronous writes dirty the cache and are charged when flushed
     (grouped sequentially, one positioning delay per file);
   - synchronous metadata updates (create/remove/mkdir...) each cost a
     positioning delay plus a small transfer, FFS-style.

   The cache is a fixed-capacity LRU of 8 KB blocks, default 25 MB —
   FreeBSD 3.x dedicated roughly a tenth of the testbed's 256 MB to the
   buffer cache, which is why the paper's 40 MB large-file test misses
   cache on re-read.  Recency is insert/write order: filling a block
   from media or writing it makes it the most recent, a read hit does
   not, and eviction drops the least recent block, writing it back
   first if dirty. *)

module Simclock = Sfs_net.Simclock
module Lru = Sfs_util.Lru

type params = {
  position_us : float; (* average seek + rotational delay *)
  bytes_per_us : float; (* media transfer rate *)
  memcpy_bytes_per_us : float; (* cache-hit copy rate *)
  metadata_sync_us : float; (* one synchronous metadata update *)
  cache_blocks : int; (* LRU capacity in 8 KB blocks *)
}

let default_params =
  {
    position_us = 8500.0;
    bytes_per_us = 20.0;
    memcpy_bytes_per_us = 400.0;
    metadata_sync_us = 9000.0;
    cache_blocks = 3200 (* 25 MB *);
  }

let block_size = 8192

type key = int * int (* fileid, block number *)

type t = {
  clock : Simclock.t;
  params : params;
  cache : (key, bool ref (* dirty *)) Lru.t;
  mutable last_access : (int * int) option; (* fileid, block — sequential-run detection *)
  mutable reads : int;
  mutable hits : int;
}

let create ?(params = default_params) (clock : Simclock.t) : t =
  { clock; params; cache = Lru.create 4096; last_access = None; reads = 0; hits = 0 }

let charge (t : t) (us : float) = Simclock.advance t.clock us

let transfer_us (t : t) (bytes : int) = float_of_int bytes /. t.params.bytes_per_us
let memcpy_us (t : t) (bytes : int) = float_of_int bytes /. t.params.memcpy_bytes_per_us

let rec evict_if_needed (t : t) : unit =
  if Lru.length t.cache > t.params.cache_blocks then
    match Lru.pop_lru t.cache with
    | Some (_, dirty) ->
        (* Write-back on eviction. *)
        if !dirty then charge t (t.params.position_us +. transfer_us t block_size);
        evict_if_needed t
    | None -> ()

let insert (t : t) (k : key) ~(dirty : bool) : unit =
  match Lru.find t.cache k with
  | Some d -> d := !d || dirty
  | None ->
      Lru.replace t.cache k (ref dirty);
      evict_if_needed t

let sequential (t : t) ~(fileid : int) ~(block : int) : bool =
  match t.last_access with Some (f, b) -> f = fileid && (block = b + 1 || block = b) | None -> false

(* Read [bytes] at byte offset [off] of [fileid]. *)
let read (t : t) ~(fileid : int) ~(off : int) ~(bytes : int) : unit =
  if bytes > 0 then begin
    let first = off / block_size and last = (off + bytes - 1) / block_size in
    for block = first to last do
      t.reads <- t.reads + 1;
      let k = (fileid, block) in
      if Lru.mem t.cache k then begin
        t.hits <- t.hits + 1;
        charge t (memcpy_us t (min bytes block_size))
      end
      else begin
        if not (sequential t ~fileid ~block) then charge t t.params.position_us;
        charge t (transfer_us t block_size);
        insert t k ~dirty:false
      end;
      t.last_access <- Some (fileid, block)
    done
  end

(* Write; [stable] forces media before returning (NFS stable writes,
   COMMIT).  Unstable writes dirty the cache. *)
let write (t : t) ~(fileid : int) ~(off : int) ~(bytes : int) ~(stable : bool) : unit =
  if bytes > 0 then begin
    let first = off / block_size and last = (off + bytes - 1) / block_size in
    for block = first to last do
      let k = (fileid, block) in
      if stable then begin
        if not (sequential t ~fileid ~block) then charge t t.params.position_us;
        charge t (transfer_us t (min bytes block_size));
        insert t k ~dirty:false
      end
      else begin
        charge t (memcpy_us t (min bytes block_size));
        insert t k ~dirty:true
      end;
      t.last_access <- Some (fileid, block)
    done
  end

(* A synchronous metadata update: FFS writes inode and directory blocks
   synchronously on create/remove/rename/... *)
let metadata_update (t : t) : unit = charge t t.params.metadata_sync_us

(* Flush dirty blocks of one file (COMMIT) or of everything (sync).
   Dirty blocks flush as sequential runs: one positioning delay per
   file plus media transfer. *)
let flush (t : t) ?(fileid : int option) () : unit =
  let dirty =
    Lru.fold
      (fun (f, b) d acc -> if !d && (fileid = None || fileid = Some f) then ((f, b), d) :: acc else acc)
      t.cache []
  in
  if dirty <> [] then begin
    let files = List.sort_uniq compare (List.map (fun ((f, _), _) -> f) dirty) in
    charge t (float_of_int (List.length files) *. t.params.position_us);
    charge t (transfer_us t (List.length dirty * block_size));
    List.iter (fun (_, d) -> d := false) dirty
  end

(* Drop the whole cache (simulates unmount/remount between benchmark
   phases). *)
let invalidate (t : t) : unit =
  flush t ();
  Lru.clear t.cache;
  t.last_access <- None

let stats (t : t) : int * int = (t.reads, t.hits)
