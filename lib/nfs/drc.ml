(* The duplicate request cache of both servers: one bounded FIFO, one
   insert/replace/evict rule (drc.mli). *)

module Obs = Sfs_obs.Obs

type ('k, 'v) t = {
  table : ('k, 'v) Hashtbl.t;
  order : 'k Queue.t; (* every key in the table, oldest first *)
  bound : int;
  obs : Obs.registry option;
  inserts : string; (* counter names *)
  evicts : string;
}

let create ?obs ~(bound : int) ~(counters : string) () : ('k, 'v) t =
  let table = Hashtbl.create 64 and order = Queue.create () in
  { table; order; bound; obs; inserts = counters ^ ".drc_insert"; evicts = counters ^ ".drc_evict" }

let find (t : ('k, 'v) t) (key : 'k) : 'v option = Hashtbl.find_opt t.table key

let admit (t : ('k, 'v) t) (key : 'k) (v : 'v) : 'v option =
  let evicted =
    if Hashtbl.mem t.table key then None
    else begin
      Obs.incr t.obs t.inserts;
      Queue.push key t.order;
      if Queue.length t.order <= t.bound then None
      else begin
        Obs.incr t.obs t.evicts;
        let old = Queue.pop t.order in
        let e = Hashtbl.find_opt t.table old in
        Hashtbl.remove t.table old;
        e
      end
    end
  in
  Hashtbl.replace t.table key v;
  evicted

let length (t : ('k, 'v) t) : int = Hashtbl.length t.table

let clear (t : ('k, 'v) t) : unit =
  Hashtbl.reset t.table;
  Queue.clear t.order
