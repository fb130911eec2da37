(* The shared O(1) LRU and the two block caches built on it.

   - [Lru] is checked differentially against a list model (most recent
     first) over random operation sequences.
   - [Diskmodel] is checked against [List_diskmodel], the buffer cache
     as it was before the LRU existed (recency kept as an OCaml list,
     move-to-front on insert and write, read hits not promoting): the
     same random op sequence must charge the simulated clock the same
     amounts, in the same order, and count the same hits.
   - [Cachefs] eviction under byte pressure is checked against a
     scripted sequence whose expected misses follow the same policy. *)

module Lru = Sfs_util.Lru
module Simclock = Sfs_net.Simclock
open Sfs_nfs
open Nfs_types

(* --- Lru vs a list model --- *)

type op =
  | Replace of int * int
  | Find of int
  | Peek of int
  | Mem of int
  | Promote of int
  | Remove of int
  | Pop
  | Clear

let show_op = function
  | Replace (k, v) -> Printf.sprintf "replace %d %d" k v
  | Find k -> Printf.sprintf "find %d" k
  | Peek k -> Printf.sprintf "peek %d" k
  | Mem k -> Printf.sprintf "mem %d" k
  | Promote k -> Printf.sprintf "promote %d" k
  | Remove k -> Printf.sprintf "remove %d" k
  | Pop -> "pop"
  | Clear -> "clear"

let gen_op =
  let open QCheck.Gen in
  let key = int_bound 12 in
  frequency
    [
      (6, map2 (fun k v -> Replace (k, v)) key (int_bound 1000));
      (3, map (fun k -> Find k) key);
      (2, map (fun k -> Peek k) key);
      (2, map (fun k -> Mem k) key);
      (2, map (fun k -> Promote k) key);
      (2, map (fun k -> Remove k) key);
      (2, return Pop);
      (1, return Clear);
    ]

(* Observable result of one op, comparable between the two sides. *)
type obs = Unit | Value of int option | Bool of bool | Popped of (int * int) option

(* The model: an association list, most recent first. *)
let model_step (m : (int * int) list) (op : op) : (int * int) list * obs =
  let without k = List.filter (fun (k', _) -> k' <> k) m in
  match op with
  | Replace (k, v) -> ((k, v) :: without k, Unit)
  | Find k -> (
      match List.assoc_opt k m with
      | Some v -> ((k, v) :: without k, Value (Some v))
      | None -> (m, Value None))
  | Peek k -> (m, Value (List.assoc_opt k m))
  | Mem k -> (m, Bool (List.mem_assoc k m))
  | Promote k -> (
      match List.assoc_opt k m with Some v -> ((k, v) :: without k, Unit) | None -> (m, Unit))
  | Remove k -> (without k, Unit)
  | Pop -> (
      match List.rev m with
      | [] -> (m, Popped None)
      | (k, v) :: rest_rev -> (List.rev rest_rev, Popped (Some (k, v))))
  | Clear -> ([], Unit)

let lru_step (t : (int, int) Lru.t) (op : op) : obs =
  match op with
  | Replace (k, v) ->
      Lru.replace t k v;
      Unit
  | Find k -> Value (Lru.find t k)
  | Peek k -> Value (Lru.peek t k)
  | Mem k -> Bool (Lru.mem t k)
  | Promote k ->
      Lru.promote t k;
      Unit
  | Remove k ->
      Lru.remove t k;
      Unit
  | Pop -> Popped (Lru.pop_lru t)
  | Clear ->
      Lru.clear t;
      Unit

let contents (t : ('k, 'v) Lru.t) : ('k * 'v) list =
  List.rev (Lru.fold (fun k v acc -> (k, v) :: acc) t [])

let lru_matches_model =
  QCheck.Test.make ~count:500 ~name:"lru agrees with list model"
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_op ops))
       QCheck.Gen.(list_size (int_bound 80) gen_op))
    (fun ops ->
      let t = Lru.create 4 in
      let _ =
        List.fold_left
          (fun (m, i) op ->
            let m', want = model_step m op in
            let got = lru_step t op in
            if got <> want then QCheck.Test.fail_reportf "op %d (%s): result differs" i (show_op op);
            if contents t <> m' then QCheck.Test.fail_reportf "op %d (%s): order differs" i (show_op op);
            if Lru.length t <> List.length m' then
              QCheck.Test.fail_reportf "op %d (%s): length differs" i (show_op op);
            (m', i + 1))
          ([], 0) ops
      in
      true)

let test_lru_basics () =
  let t = Lru.create 2 in
  List.iter (fun k -> Lru.replace t k (k * 10)) [ 1; 2; 3 ];
  Alcotest.(check (list (pair int int))) "most recent first" [ (3, 30); (2, 20); (1, 10) ] (contents t);
  Alcotest.(check (option int)) "peek" (Some 10) (Lru.peek t 1);
  Alcotest.(check (option (pair int int))) "peek does not promote" (Some (1, 10)) (Lru.pop_lru t);
  Alcotest.(check (option int)) "find" (Some 20) (Lru.find t 2);
  Alcotest.(check (option (pair int int))) "find promotes" (Some (3, 30)) (Lru.pop_lru t);
  Lru.replace t 2 21;
  Alcotest.(check (list (pair int int))) "replace overwrites" [ (2, 21) ] (contents t);
  Lru.clear t;
  Alcotest.(check (option (pair int int))) "empty pop" None (Lru.pop_lru t);
  Testkit.check_int "empty" 0 (Lru.length t)

(* --- Diskmodel vs the list-LRU buffer cache it replaced --- *)

module List_diskmodel = struct
  type key = int * int

  type t = {
    clock : Simclock.t;
    params : Diskmodel.params;
    cache : (key, bool ref) Hashtbl.t;
    mutable lru : key list; (* most recent first *)
    mutable last_access : (int * int) option;
    mutable reads : int;
    mutable hits : int;
  }

  let block_size = Nfs_types.block_size

  let create ~params clock =
    { clock; params; cache = Hashtbl.create 64; lru = []; last_access = None; reads = 0; hits = 0 }

  let charge t us = Simclock.advance t.clock us
  let transfer_us t bytes = float_of_int bytes /. t.params.Diskmodel.bytes_per_us
  let memcpy_us t bytes = float_of_int bytes /. t.params.Diskmodel.memcpy_bytes_per_us
  let touch_lru t k = t.lru <- k :: List.filter (fun k' -> k' <> k) t.lru

  let evict_if_needed t =
    while Hashtbl.length t.cache > t.params.Diskmodel.cache_blocks do
      match List.rev t.lru with
      | [] -> Hashtbl.reset t.cache
      | victim :: _ ->
          (match Hashtbl.find_opt t.cache victim with
          | Some dirty when !dirty ->
              charge t (t.params.Diskmodel.position_us +. transfer_us t block_size)
          | _ -> ());
          Hashtbl.remove t.cache victim;
          t.lru <- List.filter (fun k -> k <> victim) t.lru
    done

  let insert t k ~dirty =
    (match Hashtbl.find_opt t.cache k with
    | Some d -> d := !d || dirty
    | None ->
        Hashtbl.replace t.cache k (ref dirty);
        touch_lru t k;
        evict_if_needed t);
    touch_lru t k

  let sequential t ~fileid ~block =
    match t.last_access with Some (f, b) -> f = fileid && (block = b + 1 || block = b) | None -> false

  let read t ~fileid ~off ~bytes =
    if bytes > 0 then
      for block = off / block_size to (off + bytes - 1) / block_size do
        t.reads <- t.reads + 1;
        let k = (fileid, block) in
        if Hashtbl.mem t.cache k then begin
          t.hits <- t.hits + 1;
          charge t (memcpy_us t (min bytes block_size))
        end
        else begin
          if not (sequential t ~fileid ~block) then charge t t.params.Diskmodel.position_us;
          charge t (transfer_us t block_size);
          insert t k ~dirty:false
        end;
        t.last_access <- Some (fileid, block)
      done

  let write t ~fileid ~off ~bytes ~stable =
    if bytes > 0 then
      for block = off / block_size to (off + bytes - 1) / block_size do
        let k = (fileid, block) in
        if stable then begin
          if not (sequential t ~fileid ~block) then charge t t.params.Diskmodel.position_us;
          charge t (transfer_us t (min bytes block_size));
          insert t k ~dirty:false
        end
        else begin
          charge t (memcpy_us t (min bytes block_size));
          insert t k ~dirty:true
        end;
        t.last_access <- Some (fileid, block)
      done

  let metadata_update t = charge t t.params.Diskmodel.metadata_sync_us

  let flush t ?fileid () =
    let dirty =
      Hashtbl.fold
        (fun (f, b) d acc -> if !d && (fileid = None || fileid = Some f) then ((f, b), d) :: acc else acc)
        t.cache []
    in
    if dirty <> [] then begin
      let files = List.sort_uniq compare (List.map (fun ((f, _), _) -> f) dirty) in
      charge t (float_of_int (List.length files) *. t.params.Diskmodel.position_us);
      charge t (transfer_us t (List.length dirty * block_size));
      List.iter (fun (_, d) -> d := false) dirty
    end

  let invalidate t =
    flush t ();
    Hashtbl.reset t.cache;
    t.lru <- [];
    t.last_access <- None

  let stats t = (t.reads, t.hits)
end

type disk_op =
  | D_read of int * int * int (* fileid, off, bytes *)
  | D_write of int * int * int * bool (* fileid, off, bytes, stable *)
  | D_meta
  | D_flush of int option
  | D_invalidate

let show_disk_op = function
  | D_read (f, o, n) -> Printf.sprintf "read f%d @%d+%d" f o n
  | D_write (f, o, n, s) -> Printf.sprintf "write%s f%d @%d+%d" (if s then "(stable)" else "") f o n
  | D_meta -> "meta"
  | D_flush None -> "flush all"
  | D_flush (Some f) -> Printf.sprintf "flush f%d" f
  | D_invalidate -> "invalidate"

let gen_disk_op =
  let open QCheck.Gen in
  let bs = Nfs_types.block_size in
  let file = int_range 1 3 in
  (* Offsets and sizes straddle block boundaries so multi-block ops and
     sequential runs both occur. *)
  let off = map2 (fun b o -> (b * bs) + o) (int_bound 10) (oneofl [ 0; 0; 100; bs / 2 ]) in
  let len = oneofl [ 0; 1; 512; bs; bs + 1; 2 * bs; 3 * bs ] in
  frequency
    [
      (8, map3 (fun f o n -> D_read (f, o, n)) file off len);
      (6, map3 (fun f o n -> fun s -> D_write (f, o, n, s)) file off len <*> bool);
      (1, return D_meta);
      (2, map (fun f -> D_flush f) (opt file));
      (1, return D_invalidate);
    ]

let diskmodel_matches_list_oracle =
  QCheck.Test.make ~count:300 ~name:"diskmodel charges match the list-LRU oracle"
    (QCheck.make
       ~print:(fun (cap, ops) ->
         Printf.sprintf "cache_blocks=%d: %s" cap (String.concat "; " (List.map show_disk_op ops)))
       QCheck.Gen.(pair (int_range 1 8) (list_size (int_bound 60) gen_disk_op)))
    (fun (cap, ops) ->
      let params = { Diskmodel.default_params with Diskmodel.cache_blocks = cap } in
      let c_new = Simclock.create () and c_old = Simclock.create () in
      let d_new = Diskmodel.create ~params c_new in
      let d_old = List_diskmodel.create ~params c_old in
      List.iteri
        (fun i op ->
          (match op with
          | D_read (fileid, off, bytes) ->
              Diskmodel.read d_new ~fileid ~off ~bytes;
              List_diskmodel.read d_old ~fileid ~off ~bytes
          | D_write (fileid, off, bytes, stable) ->
              Diskmodel.write d_new ~fileid ~off ~bytes ~stable;
              List_diskmodel.write d_old ~fileid ~off ~bytes ~stable
          | D_meta ->
              Diskmodel.metadata_update d_new;
              List_diskmodel.metadata_update d_old
          | D_flush fileid ->
              Diskmodel.flush d_new ?fileid ();
              List_diskmodel.flush d_old ?fileid ()
          | D_invalidate ->
              Diskmodel.invalidate d_new;
              List_diskmodel.invalidate d_old);
          (* Exact float equality: the same charges in the same order
             sum to the same clock. *)
          if Simclock.now_us c_new <> Simclock.now_us c_old then
            QCheck.Test.fail_reportf "op %d (%s): clock %.3f vs oracle %.3f" i (show_disk_op op)
              (Simclock.now_us c_new) (Simclock.now_us c_old);
          if Diskmodel.stats d_new <> List_diskmodel.stats d_old then
            QCheck.Test.fail_reportf "op %d (%s): hit counts differ" i (show_disk_op op))
        ops;
      true)

(* Eviction order made visible: with two blocks of room, a dirty block
   that a read hit touched is still the victim (hits do not promote),
   and its write-back lands on the insert that evicts it. *)
let test_diskmodel_eviction_order () =
  let clock = Simclock.create () in
  let params = { Diskmodel.default_params with Diskmodel.cache_blocks = 2 } in
  let d = Diskmodel.create ~params clock in
  let bs = Nfs_types.block_size in
  let writeback = params.Diskmodel.position_us +. (float_of_int bs /. params.Diskmodel.bytes_per_us) in
  Diskmodel.write d ~fileid:1 ~off:0 ~bytes:bs ~stable:false;
  Diskmodel.write d ~fileid:2 ~off:0 ~bytes:bs ~stable:false;
  Diskmodel.read d ~fileid:1 ~off:0 ~bytes:bs;
  let _, dt = Simclock.time clock (fun () -> Diskmodel.write d ~fileid:3 ~off:0 ~bytes:bs ~stable:true) in
  let stable_cost = params.Diskmodel.position_us +. (float_of_int bs /. params.Diskmodel.bytes_per_us) in
  Alcotest.(check (float 1e-6)) "evicting dirty f1 charges its write-back" (stable_cost +. writeback) dt;
  let _, hit = Simclock.time clock (fun () -> Diskmodel.read d ~fileid:2 ~off:0 ~bytes:bs) in
  Testkit.check_bool "f2 survived" true (hit < 100.0)

(* --- Cachefs eviction under byte pressure --- *)

let root = Sfs_os.Simos.cred_of_user Sfs_os.Simos.root_user
let ok msg = function Ok v -> v | Error s -> Alcotest.fail (msg ^ ": " ^ status_to_string s)

(* A 3-block (24 KB) cache over a local file system, two files: [f]
   with five full blocks and [g] with one 4 KB tail block.  Reads go
   through the cache; the wrapped backend counts the ones that miss.
   The expected sequence is the insert-order policy: every fetched block
   becomes the most recent, hits leave recency alone, and each insert
   evicts least-recent blocks until the bytes fit.  Under a
   promote-on-hit policy step 6 would hit instead. *)
let test_cachefs_byte_pressure_eviction () =
  let clock = Simclock.create () in
  let fs = Memfs.create ~now:(fun () -> time_of_us (Simclock.now_us clock)) () in
  let disk = Diskmodel.create clock in
  let backend = Memfs_ops.make ~fs ~disk in
  let bs = 8192 (* Cachefs block size *) in
  let dir = backend.Fs_intf.fs_root in
  let f, _ = ok "create f" (backend.Fs_intf.fs_create root ~dir "f" ~mode:0o644) in
  let g, _ = ok "create g" (backend.Fs_intf.fs_create root ~dir "g" ~mode:0o644) in
  ignore (ok "write f" (backend.Fs_intf.fs_write root f ~off:0 ~stable:true (String.make (5 * bs) 'f')));
  ignore (ok "write g" (backend.Fs_intf.fs_write root g ~off:0 ~stable:true (String.make (bs / 2) 'g')));
  let misses = ref 0 in
  let counted =
    { backend with Fs_intf.fs_read = (fun c h ~off ~count -> incr misses; backend.Fs_intf.fs_read c h ~off ~count) }
  in
  let policy = { Cachefs.nfs_policy with Cachefs.data_cache_bytes = 3 * bs } in
  let obs = Sfs_obs.Obs.create ~now_us:(fun () -> Simclock.now_us clock) () in
  let cache = Cachefs.create ~obs ~clock ~policy counted in
  let ops = Cachefs.ops cache in
  let steps =
    (* (file, block, expect a miss) *)
    [
      ("f", 0, true); ("f", 1, true); ("f", 2, true);
      ("g", 0, true) (* 28 KB > 24 KB: evicts f0 *);
      ("f", 1, false) (* hit; f1 stays least recent *);
      ("f", 3, true) (* evicts f1, not f2 *);
      ("f", 1, true) (* evicts f2 *);
      ("g", 0, false);
      ("f", 2, true) (* evicts g: its hit did not promote it *);
      ("g", 0, true) (* evicts f3 *);
      ("f", 3, true) (* evicts f1 *);
      ("f", 2, false);
    ]
  in
  List.iteri
    (fun i (name, b, want_miss) ->
      let h = if name = "f" then f else g in
      let before = !misses in
      let data, _, _ = ok "read" (ops.Fs_intf.fs_read root h ~off:(b * bs) ~count:bs) in
      let expect = if name = "f" then String.make bs 'f' else String.make (bs / 2) 'g' in
      Testkit.check_string (Printf.sprintf "step %d contents" i) expect data;
      Testkit.check_bool
        (Printf.sprintf "step %d: %s%d %s" i name b (if want_miss then "misses" else "hits"))
        want_miss (!misses > before))
    steps;
  let hits = Sfs_obs.Obs.counter obs "cache.read.hit" in
  Testkit.check_int "reads" (List.length steps) (hits + Sfs_obs.Obs.counter obs "cache.read.miss");
  Testkit.check_int "hits" 3 hits

let suite =
  ( "lru",
    [
      Alcotest.test_case "lru basics" `Quick test_lru_basics;
      Alcotest.test_case "diskmodel eviction order" `Quick test_diskmodel_eviction_order;
      Alcotest.test_case "cachefs byte-pressure eviction" `Quick test_cachefs_byte_pressure_eviction;
    ]
    @ Testkit.to_alcotest [ lru_matches_model; diskmodel_matches_list_oracle ] )
