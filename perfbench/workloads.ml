(* The four workloads.  Each is driven from one process and one thread,
   only through the program's public functions, and checks every output
   it gets back.  A timed phase is a run of whole rounds; a round is a
   fixed, seeded amount of work, so the first round's allocation is a
   deterministic figure. *)

module Simos = Sfs_os.Simos
module Memfs = Sfs_nfs.Memfs
module Diskmodel = Sfs_nfs.Diskmodel
module Cachefs = Sfs_nfs.Cachefs
module Fs_intf = Sfs_nfs.Fs_intf
module Nfs_types = Sfs_nfs.Nfs_types
module Obs = Sfs_obs.Obs
module Vfs = Sfs_core.Vfs
module Fleet = Sfs_workload.Fleet
module Flashcrowd = Sfs_workload.Flashcrowd

let fail = World.fail

(* What the timed phase accumulates. *)
type ctx = {
  tr : Trace.t option;
  lat : Meter.Samples.t; (* wall µs of each call the benchmark makes *)
  mutable ops : int; (* completed and checked *)
  mutable attempted : int;
  mutable failed : int; (* failed, or returned output that did not check *)
  mutable read_bytes : float; (* payload read *)
}

let ctx (tr : Trace.t option) : ctx =
  { tr; lat = Meter.Samples.create (); ops = 0; attempted = 0; failed = 0; read_bytes = 0.0 }

(* One call into the program: timed, traced when tracing, then checked
   outside the timing. *)
let call (c : ctx) (f : unit -> 'a) (check : 'a -> bool) : unit =
  c.attempted <- c.attempted + 1;
  let t0 = Meter.mono_ns () in
  let v = match c.tr with None -> f () | Some tr -> Trace.within tr Trace.Call f in
  Meter.Samples.add c.lat ((Meter.mono_ns () -. t0) /. 1000.0);
  if check v then c.ops <- c.ops + 1 else c.failed <- c.failed + 1

(* The workload's input generator.  It is the standard library's
   generator, not the program's SHA-1 Prng: input generation runs inside
   the timed set-up, and must cost next to nothing there. *)
let seeded (seed : string) (what : string) : Random.State.t =
  let d = Digest.string (String.concat "/" [ "perfbench"; what; seed ]) in
  Random.State.make (Array.init 4 (fun i -> Int32.to_int (String.get_int32_le d (4 * i))))

let random_bytes (rs : Random.State.t) (n : int) : string =
  String.init n (fun _ -> Char.chr (Random.State.int rs 256))

(* A seeded permutation of [0, n). *)
let permutation (rs : Random.State.t) (n : int) : int array =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rs (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let root_cred = Simos.cred_of_user Simos.root_user

let bench_dir (w : World.t) : int =
  match Memfs.lookup w.World.server_fs root_cred ~dir:Memfs.root_id "bench" with
  | Ok (id, _) -> id
  | Error e -> fail "lookup /bench: %s" (Nfs_types.status_to_string e)

(* What one crowd batch reports beside its timing.  Batches of a run
   share one config and the engines are deterministic, so the last
   batch's figures and checks stand for all of them. *)
type batch = {
  b_ops : int; (* actions (crowd-rw) or reads (crowd-ro) *)
  b_events : int;
  b_counter : string -> int; (* the engine's obs counters *)
  b_net : int * int; (* Simnet exchanges and wire bytes, all connections *)
  b_layers : (string * float) list; (* engine-specific per-layer figures *)
  b_checks : (string * bool) list;
      (* the engine's invariants, and its simulated-time figures printed as
         checks only, so the two clocks never mix *)
  b_ledger : string;
}

(* A workload instance, built by its set-up.  Round [-1] is the
   warm-up. *)
type instance = {
  world : World.t option; (* the single-client world, when there is one *)
  round : ctx -> int -> unit;
  finish : unit -> (string * bool) list; (* output checks after the timed phase *)
  mutable batch : batch option;
}

(* --- read-seq: sequential 8 KB reads of a 64 MB file through a resolved
   handle.  The file is 2.5x the client's 25 MB Cachefs block cache; the
   server Diskmodel cache (16384 blocks, 128 MB) holds all of it. *)
module Read_seq = struct
  let file_bytes = 64 * 1024 * 1024
  let chunk = 8192
  let nblocks = file_bytes / chunk
  let disk_blocks = 16384
  let warm_reads = 4096
  let round_reads = 1024
  let plen = 65521 (* prime: no two blocks of the file are alike *)

  (* File byte [k] is [pattern.[(k + shift) mod plen]]. *)
  let seed_file (w : World.t) ~(pattern : string) ~(shift : int) : unit =
    let fs = w.World.server_fs in
    let fid, _ =
      match Memfs.create_file fs root_cred ~dir:(bench_dir w) "seq-64mb" ~mode:0o644 with
      | Ok v -> v
      | Error e -> fail "seed: %s" (Nfs_types.status_to_string e)
    in
    let piece = 1 lsl 20 in
    let buf = Bytes.create piece in
    let off = ref 0 in
    while !off < file_bytes do
      let p = ref ((!off + shift) mod plen) in
      for j = 0 to piece - 1 do
        Bytes.unsafe_set buf j (String.unsafe_get pattern !p);
        incr p;
        if !p = plen then p := 0
      done;
      (match Memfs.write fs root_cred fid ~off:!off (Bytes.to_string buf) with
      | Ok _ -> ()
      | Error e -> fail "seed: %s" (Nfs_types.status_to_string e));
      off := !off + piece
    done;
    (* Pre-warm the server's block cache, as fig5 does. *)
    for b = 0 to nblocks - 1 do
      Diskmodel.write w.World.server_disk ~fileid:fid ~off:(b * chunk) ~bytes:chunk ~stable:false
    done

  let check_block ~(pattern : string) ~(shift : int) ~(off : int) (data : string) : bool =
    String.length data = chunk
    &&
    let p = ref ((off + shift) mod plen) and ok = ref true and j = ref 0 in
    while !ok && !j < chunk do
      if String.unsafe_get data !j <> String.unsafe_get pattern !p then ok := false;
      incr j;
      incr p;
      if !p = plen then p := 0
    done;
    !ok

  let setup ?tr ~(seed : string) () : instance =
    let rs = seeded seed "read-seq" in
    let pattern = random_bytes rs plen in
    let shift = Random.State.int rs plen in
    let w = World.make ?tr ~disk_blocks () in
    seed_file w ~pattern ~shift;
    let ops, fh =
      match Vfs.resolve w.World.vfs w.World.cred (w.World.workdir ^ "/seq-64mb") with
      | Ok v -> v
      | Error e -> fail "resolve: %s" (Vfs.verror_to_string e)
    in
    let next = ref 0 in
    let read1 (c : ctx) =
      let off = !next * chunk in
      next := (!next + 1) mod nblocks;
      call c
        (fun () -> ops.Fs_intf.fs_read w.World.cred fh ~off ~count:chunk)
        (function
          | Ok (data, _, _) ->
              c.read_bytes <- c.read_bytes +. float_of_int (String.length data);
              check_block ~pattern ~shift ~off data
          | Error _ -> false)
    in
    {
      world = Some w;
      round =
        (fun c r ->
          let n = if r < 0 then warm_reads else round_reads in
          for _ = 1 to n do
            read1 c
          done);
      finish = (fun () -> []);
      batch = None;
    }
end


(* --- meta-mix: 1,000 files of 1 KB in 10 directories, through Vfs
   paths; the tree fits every cache.  A round creates and writes every
   file, stats each, lists each directory, drops the client cache, reads
   each file back and unlinks it, each phase in its own seeded order. *)
module Meta_mix = struct
  let files = 1000
  let dirs = 10
  let file_bytes = 1024
  let per_dir = files / dirs

  let entries (names : string list) : int =
    List.length (List.filter (fun n -> n <> "." && n <> "..") names)

  let setup ?tr ~(seed : string) () : instance =
    let rs = seeded seed "meta-mix" in
    let w = World.make ?tr ~disk_blocks:Diskmodel.default_params.Diskmodel.cache_blocks () in
    let vfs = w.World.vfs and cred = w.World.cred in
    let dir_path = Array.init dirs (fun d -> Printf.sprintf "%s/d%d" w.World.workdir d) in
    Array.iter
      (fun p ->
        match Vfs.mkdir vfs cred p with
        | Ok () -> ()
        | Error e -> fail "mkdir: %s" (Vfs.verror_to_string e))
      dir_path;
    let paths = Array.init files (fun i -> Printf.sprintf "%s/f%d" dir_path.(i mod dirs) i) in
    (* Two content sets, alternating by round, so stale data shows. *)
    let contents = Array.init 2 (fun _ -> Array.init files (fun _ -> random_bytes rs file_bytes)) in
    let perms = Array.init 4 (fun _ -> permutation rs files) in
    let dir_order = permutation rs dirs in
    let round (c : ctx) (r : int) =
      let set = contents.(r land 1) in
      Array.iter
        (fun i -> call c (fun () -> Vfs.write_file vfs cred paths.(i) set.(i)) Result.is_ok)
        perms.(0);
      Array.iter
        (fun i ->
          call c
            (fun () -> Vfs.stat vfs cred paths.(i))
            (function Ok a -> a.Nfs_types.size = file_bytes | Error _ -> false))
        perms.(1);
      Array.iter
        (fun d ->
          call c
            (fun () -> Vfs.readdir vfs cred dir_path.(d))
            (function Ok names -> entries names = per_dir | Error _ -> false))
        dir_order;
      Cachefs.invalidate_all w.World.cache;
      Array.iter
        (fun i ->
          call c
            (fun () -> Vfs.read_file vfs cred paths.(i))
            (function
              | Ok s ->
                  c.read_bytes <- c.read_bytes +. float_of_int (String.length s);
                  String.equal s set.(i)
              | Error _ -> false))
        perms.(2);
      Array.iter (fun i -> call c (fun () -> Vfs.unlink vfs cred paths.(i)) Result.is_ok) perms.(3)
    in
    let finish () =
      Array.to_list
        (Array.mapi
           (fun d p ->
             ( Printf.sprintf "d%d ends empty" d,
               match Vfs.readdir vfs cred p with Ok names -> entries names = 0 | Error _ -> false ))
           dir_path)
    in
    { world = Some w; round; finish; batch = None }
end

(* --- The crowds: one fixed-size batch per round, run by the engine,
   which builds its own world inside [run].  Arrivals are simulated and
   open-loop; in real time each batch is one call. *)

let sum_counters (reg : Obs.registry) : int * int =
  List.fold_left
    (fun (rpcs, bytes) (name, v) ->
      if String.length name > 4 && String.sub name 0 4 = "net." then
        if Filename.check_suffix name ".rpcs" then (rpcs + v, bytes)
        else if Filename.check_suffix name ".bytes_out" || Filename.check_suffix name ".bytes_in"
        then (rpcs, bytes + v)
        else (rpcs, bytes)
      else (rpcs, bytes))
    (0, 0) (Obs.snapshot reg).Obs.snap_counters

(* Run one batch, time it, count it and check it. *)
let batch (c : ctx) ~(attempted : int) (run : unit -> 'r)
    (account : 'r -> int * int * float * batch) : batch =
  let t0 = Meter.mono_ns () in
  let r = match c.tr with None -> run () | Some tr -> Trace.within tr Trace.Batch run in
  let dt = Meter.mono_ns () -. t0 in
  let ok, failed, read_bytes, b = account r in
  c.read_bytes <- c.read_bytes +. read_bytes;
  Meter.Samples.add c.lat (Meter.ratio (dt /. 1000.0) (float_of_int (max 1 ok)));
  c.attempted <- c.attempted + attempted;
  c.ops <- c.ops + ok;
  c.failed <- c.failed + failed;
  b

let invariants (inv : (string * bool) list) : (string * bool) list =
  List.map (fun (n, ok) -> ("invariant " ^ n, ok)) inv

let sketch_check (what : string) (s : Sfs_obs.Sketch.t) : string =
  Printf.sprintf "%s p50 %d us, p99 %d us (simulated)" what (Sfs_obs.Sketch.quantile s 0.5)
    (Sfs_obs.Sketch.quantile s 0.99)

(* --- crowd-rw: Fleet with 4 servers behind a 4-shard authserv ring,
   window 16, the Hotfile mix; every 25th client writes the hot file,
   so lease invalidations fan in.  An op is one client action: a mount
   (key negotiation + authentication) or one of its 4 micro-ops. *)
module Crowd_rw = struct
  let clients = 200

  let config ~(seed : string) ~(clients : int) : Fleet.config =
    {
      Fleet.default with
      Fleet.clients;
      servers = 4;
      auth_shards = 4;
      user_pool = 16;
      window = 16;
      readahead = 16;
      admit_per_server = Some 4000;
      hot_write_every = 25;
      seed = "perfbench-crowd-rw-" ^ seed;
    }

  (* Ops 0 and 2 of each client read 4 KB of the hot file. *)
  let hot_read_bytes = 4096

  let account (r : Fleet.result) : int * int * float * batch =
    let cfg = r.Fleet.r_cfg in
    let inv = Fleet.reconcile r in
    let ok = r.Fleet.r_mount_ok + r.Fleet.r_completed in
    let failed = r.Fleet.r_failed + r.Fleet.r_mount_failed in
    ( ok,
      failed,
      float_of_int (2 * r.Fleet.r_mount_ok * hot_read_bytes),
      {
        b_ops = ok;
        b_events = r.Fleet.r_events;
        b_counter = Obs.counter r.Fleet.r_obs;
        b_net = sum_counters r.Fleet.r_obs;
        b_layers = [ ("fleet.mount_retries", float_of_int r.Fleet.r_mount_retries) ];
        b_checks =
          List.map
            (fun s -> (s, true))
            [
              sketch_check "fleet op latency" r.Fleet.r_op_lat;
              sketch_check "fleet mount latency" r.Fleet.r_mount_lat;
              Printf.sprintf "fleet throughput %.1f ops/s (simulated), %d clients"
                (Fleet.throughput_ops_s r) cfg.Fleet.clients;
            ]
          @ invariants (("mount_failed = 0", r.Fleet.r_mount_failed = 0) :: inv);
        b_ledger = Fleet.ledger r;
      } )

  let setup ?tr:_ ~(seed : string) () : instance =
    (* Set-up: the same engine world with a single client — keys for
       4 servers, 4 authshards and 16 users, the seeded files, one mount. *)
    ignore (Fleet.run (config ~seed ~clients:1));
    let cfg = config ~seed ~clients in
    let attempted = clients * (1 + cfg.Fleet.ops_per_client) in
    let rec inst =
      {
        world = None;
        round =
          (fun c _ ->
            inst.batch <- Some (batch c ~attempted (fun () -> Fleet.run cfg) account));
        finish = (fun () -> []);
        batch = None;
      }
    in
    inst
end

(* --- crowd-ro: Flashcrowd with 4 mirrors serving a 16 x 64 x 8 KB tree,
   Zipf popularity (theta 1.0), 8 reads per client through a 256-object
   verification cache, and an incremental republish halfway through the
   2 s arrival ramp.  An op is one read. *)
module Crowd_ro = struct
  let clients = 600
  let ramp_us = 2_000_000.0

  let config ~(seed : string) ~(clients : int) : Flashcrowd.config =
    {
      Flashcrowd.default with
      Flashcrowd.clients;
      replicas = 4;
      dirs = 16;
      files_per_dir = 64;
      file_bytes = 8192;
      theta = 1.0;
      reads_per_client = 8;
      vcache_objs = 256;
      admit_per_mirror = Some 2048;
      ramp_us;
      republish_at_us = Some (ramp_us /. 2.0);
      seed = "perfbench-crowd-ro-" ^ seed;
    }

  let account (r : Flashcrowd.result) : int * int * float * batch =
    let cfg = r.Flashcrowd.r_cfg in
    let inv = Flashcrowd.reconcile r in
    let ok = r.Flashcrowd.r_reads_ok in
    let failed =
      r.Flashcrowd.r_reads_failed + r.Flashcrowd.r_clients_failed + r.Flashcrowd.r_bad_content
    in
    ( ok,
      failed,
      float_of_int (ok * cfg.Flashcrowd.file_bytes),
      {
        b_ops = ok;
        b_events = r.Flashcrowd.r_events;
        b_counter = Obs.counter r.Flashcrowd.r_obs;
        b_net = sum_counters r.Flashcrowd.r_obs;
        b_layers =
          [
            ("flashcrowd.failovers", float_of_int r.Flashcrowd.r_failovers);
            ("flashcrowd.retries", float_of_int r.Flashcrowd.r_retries);
          ];
        b_checks =
          List.map
            (fun s -> (s, true))
            [
              sketch_check "flashcrowd read latency" r.Flashcrowd.r_read_lat;
              sketch_check "flashcrowd connect latency" r.Flashcrowd.r_connect_lat;
              Printf.sprintf "flashcrowd throughput %.1f reads/s (simulated), %d clients, %d republishes"
                (Flashcrowd.throughput_reads_s r) cfg.Flashcrowd.clients r.Flashcrowd.r_republishes;
            ]
          @ invariants (("bad_content = 0", r.Flashcrowd.r_bad_content = 0) :: inv);
        b_ledger = Flashcrowd.ledger r;
      } )

  let setup ?tr:_ ~(seed : string) () : instance =
    (* Set-up: the same engine world with a single client — publisher
       key, snapshot of the whole tree, fan-out to every mirror. *)
    ignore (Flashcrowd.run (config ~seed ~clients:1));
    let cfg = config ~seed ~clients in
    let attempted = clients * cfg.Flashcrowd.reads_per_client in
    let rec inst =
      {
        world = None;
        round =
          (fun c _ ->
            inst.batch <- Some (batch c ~attempted (fun () -> Flashcrowd.run cfg) account));
        finish = (fun () -> []);
        batch = None;
      }
    in
    inst
end
