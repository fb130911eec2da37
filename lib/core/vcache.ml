(* Bounded LRU over verified read-only objects, keyed by content hash.

   The recency structure is the shared O(1) [Sfs_util.Lru]; a hit
   refreshes recency and eviction pops the least recent entry.
   Content addressing makes invalidation unnecessary — a hash names its
   bytes forever — so the only reason an entry leaves is capacity. *)

module Ro = Sfs_proto.Readonly_proto
module Obs = Sfs_obs.Obs
module Lru = Sfs_util.Lru

type t = {
  lru : (string, Ro.obj * int (* marshaled bytes *)) Lru.t;
  cap : int;
  obs : Obs.registry option;
  mutable live_bytes : int;
}

let create ?obs ~(cap : int) () : t =
  if cap < 1 then invalid_arg "Vcache.create: cap must be >= 1";
  { lru = Lru.create (min cap 256); cap; obs; live_bytes = 0 }

let find (t : t) (hash : string) : Ro.obj option =
  match Lru.find t.lru hash with
  | Some (o, bytes) ->
      Obs.incr t.obs "ro.verify.hit";
      Obs.add t.obs "ro.verify.hit_bytes" bytes;
      Some o
  | None ->
      Obs.incr t.obs "ro.verify.miss";
      None

let evict_lru (t : t) : unit =
  match Lru.pop_lru t.lru with
  | Some (_, (_, bytes)) ->
      t.live_bytes <- t.live_bytes - bytes;
      Obs.incr t.obs "ro.vcache.evict"
  | None -> ()

let add (t : t) ~(hash : string) ~(bytes : int) (o : Ro.obj) : unit =
  (match Lru.peek t.lru hash with
  | Some (_, old) ->
      (* re-verification of a cached hash (e.g. after a racing miss):
         keep one entry, refresh recency *)
      t.live_bytes <- t.live_bytes - old
  | None -> if Lru.length t.lru >= t.cap then evict_lru t);
  Lru.replace t.lru hash (o, bytes);
  t.live_bytes <- t.live_bytes + bytes

let count (t : t) : int = Lru.length t.lru
let bytes (t : t) : int = t.live_bytes
