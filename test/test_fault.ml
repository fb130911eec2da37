(* The fault-injection harness (lib/fault + Simnet injector hooks).

   Three pillars:
   - determinism: same seed, same workload => byte-identical
     fault/recovery ledger;
   - victim recovery: retransmit caches absorb duplicates, clients
     reconnect across server crash windows;
   - the oracle property: under any generated fault plan, the file
     system state that survives equals a fault-free run of the same
     operations — faults may cost time, never correctness. *)

module Fault = Sfs_fault.Fault
module Stacks = Sfs_workload.Stacks
module Simclock = Sfs_net.Simclock
module Memfs = Sfs_nfs.Memfs
module Cachefs = Sfs_nfs.Cachefs
module Obs = Sfs_obs.Obs
module Vfs = Sfs_core.Vfs

(* --- A tiny deterministic workload, driven through the VFS --- *)

type op =
  | Mkdir of string
  | Write of string * string (* rel path, contents *)
  | Read of string
  | Remove of string
  | Rename of string * string
  | Readdir of string

(* Faults surface as errors ([Error _] results, RPC give-ups, raw
   timeouts); the workload shrugs and moves on — what matters is that
   the surviving state matches the oracle, not that every op wins.
   [apply] reports whether the op gave up with [Rpc_failure]: the
   client spent its retry budget, and the op may or may not have
   reached the server. *)
let apply (w : Stacks.world) (op : op) : bool =
  let vfs = w.Stacks.vfs and cred = w.Stacks.cred in
  let p rel = w.Stacks.workdir ^ "/" ^ rel in
  match
    match op with
    | Mkdir d -> ignore (Vfs.mkdir vfs cred (p d))
    | Write (f, data) -> ignore (Vfs.write_file vfs cred (p f) data)
    | Read f -> ignore (Vfs.read_file vfs cred (p f))
    | Remove f -> ignore (Vfs.unlink vfs cred (p f))
    | Rename (a, b) -> ignore (Vfs.rename vfs cred ~src:(p a) ~dst:(p b))
    | Readdir d -> ignore (Vfs.readdir vfs cred (p d))
  with
  | () -> false
  | exception Sfs_nfs.Nfs_client.Rpc_failure _ -> true
  | exception Sfs_net.Simnet.Timeout -> false

(* Run [ops]; returns the indices of those that gave up. *)
let run_recording (w : Stacks.world) (ops : op list) : int list =
  List.concat (List.mapi (fun i op -> if apply w op then [ i ] else []) ops)

let run_ops (w : Stacks.world) (ops : op list) : unit = ignore (run_recording w ops)

(* Deterministic op sequence from an integer seed: mkdirs first so
   later ops have somewhere to land, then a shuffle of mutations and
   reads over a small fixed namespace (d0-d2 / f0-f5). *)
let ops_of_seed (seed : int) : op list =
  let r = Testkit.make_rand (seed + 1) in
  let dir () = Printf.sprintf "d%d" (r () mod 3) in
  let file () =
    let d = r () mod 4 in
    let f = Printf.sprintf "f%d" (r () mod 6) in
    if d = 3 then f else Printf.sprintf "d%d/%s" d f
  in
  let n = 12 + (r () mod 13) in
  [ Mkdir "d0"; Mkdir "d1"; Mkdir "d2" ]
  @ List.init n (fun _ ->
        match r () mod 8 with
        | 0 -> Mkdir (dir ())
        | 1 | 2 | 3 -> Write (file (), Testkit.rand_string r (8 * (r () land 63)))
        | 4 -> Read (file ())
        | 5 -> Remove (file ())
        | 6 -> Rename (file (), file ())
        | _ -> Readdir (dir ()))

(* Structural signature of the server's backing store: every node's
   path, kind, and content digest, sorted.  Two runs agree iff their
   surviving trees are identical. *)
let signature (fs : Memfs.t) : string =
  Memfs.fold fs
    (fun acc ~path id ->
      let name = String.concat "/" path in
      let line =
        match Memfs.inode_kind fs id with
        | Some (Memfs.Reg _) -> (
            match Memfs.read fs (Sfs_os.Simos.cred_of_user Sfs_os.Simos.root_user) id ~off:0 ~count:max_int with
            | Ok (data, _) ->
                Printf.sprintf "F %s %d %s" name (String.length data) (Digest.to_hex (Digest.string data))
            | Error _ -> "? " ^ name)
        | Some (Memfs.Dir _) -> "D " ^ name
        | Some (Memfs.Symlink t) -> Printf.sprintf "L %s %s" name t
        | None -> "? " ^ name
      in
      line :: acc)
    []
  |> List.sort compare |> String.concat "\n"

(* --- The empty plan is a no-op --- *)

let test_empty_plan () =
  let ops = ops_of_seed 42 in
  let bare = Stacks.make Stacks.Nfs_udp in
  run_ops bare ops;
  let armed = Stacks.make ~fault:(Fault.none ~seed:"noop") Stacks.Nfs_udp in
  run_ops armed ops;
  Testkit.check_string "identical trees" (signature bare.Stacks.server_fs)
    (signature armed.Stacks.server_fs);
  Alcotest.(check (float 0.0001))
    "identical simulated time"
    (Simclock.now_us bare.Stacks.clock)
    (Simclock.now_us armed.Stacks.clock);
  Testkit.check_string "empty ledger" "" (Fault.ledger armed.Stacks.obs)

(* --- Same seed, byte-identical ledger --- *)

let lossy_spec () =
  Fault.make ~seed:"ledger-det" ~drop_pm:150 ~dup_pm:100 ~delay_pm:400 ~delay_mean_us:2_000
    ~delay_p99_us:20_000 ()

let test_ledger_determinism () =
  let run () =
    let w = Stacks.make ~fault:(lossy_spec ()) Stacks.Sfs in
    run_ops w (ops_of_seed 7);
    (Fault.ledger w.Stacks.obs, signature w.Stacks.server_fs)
  in
  let l1, s1 = run () in
  let l2, s2 = run () in
  Testkit.check_bool "faults actually injected" true (l1 <> "");
  Testkit.check_string "byte-identical ledgers" l1 l2;
  Testkit.check_string "byte-identical trees" s1 s2

(* --- Duplicates are absorbed by the retransmit cache --- *)

let test_retransmit_cache () =
  let w =
    Stacks.make ~fault:(Fault.make ~seed:"dup-heavy" ~dup_pm:2_000 ()) Stacks.Nfs_udp
  in
  run_ops w (ops_of_seed 11);
  Testkit.check_bool "duplicates injected" true (Obs.counter w.Stacks.obs "fault.duplicate" > 0);
  Testkit.check_bool "retransmit cache hit" true
    (Obs.counter w.Stacks.obs "recover.retransmit_hit" > 0);
  (* The duplicate of a CREATE executed once: the tree matches a clean
     run of the same ops. *)
  let clean = Stacks.make Stacks.Nfs_udp in
  run_ops clean (ops_of_seed 11);
  Testkit.check_string "no double execution" (signature clean.Stacks.server_fs)
    (signature w.Stacks.server_fs)

(* --- Crash/restart: leases die, clients reconnect and re-authenticate --- *)

let test_crash_recovery () =
  let w = Stacks.make Stacks.Sfs in
  let now = Simclock.now_us w.Stacks.clock in
  Stacks.arm_faults w
    (Fault.make ~seed:"crash"
       ~crashes:
         [ { Fault.c_host = Stacks.server_location; c_down_us = now +. 1_000.0; c_up_us = now +. 50_000.0 } ]
       ());
  run_ops w [ Mkdir "pre" ];
  Simclock.advance w.Stacks.clock 2_000.0 (* into the outage *);
  run_ops w [ Mkdir "during"; Write ("during/f", "x"); Read "during/f" ];
  Testkit.check_bool "server restarted" true (Obs.counter w.Stacks.obs "recover.server_restart" >= 1);
  Testkit.check_bool "client reconnected" true (Obs.counter w.Stacks.obs "recover.reconnect" > 0);
  Testkit.check_bool "client re-authenticated" true (Obs.counter w.Stacks.obs "recover.reauth" > 0);
  Testkit.check_bool "cache flushed" true (Obs.counter w.Stacks.obs "recover.cache_flush" > 0);
  (* All three ops landed despite the outage. *)
  let s = signature w.Stacks.server_fs in
  let contains needle =
    let n = String.length needle and m = String.length s in
    let rec at i = i + n <= m && (String.sub s i n = needle || at (i + 1)) in
    at 0
  in
  Testkit.check_bool "post-crash writes survived" true
    (contains "bench/during" && contains "bench/during/f")

(* --- Serial SFS calls recover through the window-1 mux --- *)

module Simnet = Sfs_net.Simnet
module Client = Sfs_core.Client

(* A fully serial SFS world whose client connections all carry one tap.
   The primed mount is dropped first, so the remount (and every later
   reconnection) dials under the tap.  [arm dir f] makes the tap apply
   [f] to the next message in [dir] only; everything else passes. *)
let tapped_serial_world () =
  let w = Stacks.make ~rpc_window:1 ~readahead:0 Stacks.Sfs in
  let client = Option.get w.Stacks.sfs_client in
  List.iter (Client.unmount client) (Client.mounts client);
  let tap = Simnet.passive_tap () in
  Simnet.set_default_tap w.Stacks.net (Some tap);
  (match Vfs.stat w.Stacks.vfs w.Stacks.cred w.Stacks.workdir with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "remount: %s" (Vfs.verror_to_string e));
  let m = List.hd (Client.mounts client) in
  let arm dir f =
    tap.Simnet.on_message <-
      (fun d msg ->
        if d <> dir then Simnet.Pass
        else begin
          tap.Simnet.on_message <- (fun _ _ -> Simnet.Pass);
          f msg
        end)
  in
  (w, tap, m, arm)

(* One uncached GETATTR of the mount's root: exactly one serial RPC. *)
let getattr_root (w : Stacks.world) (m : Client.mount) : unit =
  Cachefs.invalidate_all (Client.cache m);
  let ops = Client.ops m in
  match ops.Sfs_nfs.Fs_intf.fs_getattr w.Stacks.cred ops.Sfs_nfs.Fs_intf.fs_root with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "getattr: %s" (Sfs_nfs.Nfs_types.status_to_string e)

let getattr_samples (w : Stacks.world) : int =
  List.length (List.filter (fun s -> s.Obs.cp_op = "getattr") (Obs.cp_samples w.Stacks.obs))

let test_serial_mac_mismatch () =
  let w, _, m, arm = tapped_serial_world () in
  let samples0 = getattr_samples w in
  (* Flip a bit of the reply's MAC tag: the frame stays well-formed. *)
  arm Simnet.To_client (fun msg ->
      let b = Bytes.of_string msg in
      let i = Bytes.length b - 1 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
      Simnet.Replace (Bytes.to_string b));
  getattr_root w m;
  Testkit.check_int "mac mismatch counted" 1 (Obs.counter w.Stacks.obs "recover.mac_mismatch");
  Testkit.check_int "no replay counted" 0 (Obs.counter w.Stacks.obs "recover.replay");
  Testkit.check_int "one reconnect" 1 (Obs.counter w.Stacks.obs "recover.reconnect");
  Testkit.check_int "only the good attempt sampled" 1 (getattr_samples w - samples0)

let test_serial_replay () =
  let w, tap, m, arm = tapped_serial_world () in
  (* Answer with the previous reply again: the receive stream has moved
     on, so it no longer decrypts to a sane frame. *)
  let previous =
    match List.find_opt (fun (d, _) -> d = Simnet.To_client) tap.Simnet.observed with
    | Some (_, msg) -> msg
    | None -> Alcotest.fail "no earlier reply to replay"
  in
  arm Simnet.To_client (fun _ -> Simnet.Replace previous);
  getattr_root w m;
  Testkit.check_int "replay counted" 1 (Obs.counter w.Stacks.obs "recover.replay");
  Testkit.check_int "no mac mismatch counted" 0 (Obs.counter w.Stacks.obs "recover.mac_mismatch");
  Testkit.check_int "one reconnect" 1 (Obs.counter w.Stacks.obs "recover.reconnect")

(* The recovery counters of one reply path, pinned: a seeded window-16
   sequential read of a 2 MB file under drops and corruption.  A serial
   attempt that opens a bad reply counts recover.mac_mismatch or
   recover.replay and reconnects; a readahead exchange that fails
   counts only mux.fail and leaves recovery to the serial fallback.
   Every block still reads back intact. *)
let test_reply_path_counters () =
  let w = Stacks.make ~rpc_window:16 Stacks.Sfs in
  let path = w.Stacks.workdir ^ "/big" and bs = 8192 in
  let data = Sfs_workload.Driver.content ~seed:7 (2 * 1024 * 1024) in
  Sfs_workload.Driver.write_file w path data;
  Sfs_workload.Driver.commit w path;
  Stacks.flush_caches w;
  Stacks.arm_faults w (Fault.make ~seed:"reply-path" ~drop_pm:100 ~corrupt_pm:100 ());
  for b = 0 to 255 do
    if Sfs_workload.Driver.read_at w path ~off:(b * bs) ~count:bs <> String.sub data (b * bs) bs
    then Alcotest.failf "block %d read back wrong" b
  done;
  let counter = Obs.counter w.Stacks.obs in
  Testkit.check_int "recover.mac_mismatch" 1 (counter "recover.mac_mismatch");
  Testkit.check_int "recover.replay" 2 (counter "recover.replay");
  Testkit.check_int "recover.reconnect" 8 (counter "recover.reconnect");
  Testkit.check_int "mux.fail" 112 (counter "mux.fail");
  Testkit.check_int "channel.client.mac_failures" 41 (counter "channel.client.mac_failures")

(* A fresh file in the world's working directory, created under the
   tap (every message passes). *)
let fresh_file (w : Stacks.world) (m : Client.mount) (name : string) : Sfs_nfs.Nfs_types.fh =
  let ops = Client.ops m and cred = w.Stacks.cred in
  let ok what = function
    | Ok (fh, _) -> fh
    | Error e -> Alcotest.failf "%s: %s" what (Sfs_nfs.Nfs_types.status_to_string e)
  in
  let dir = ok "lookup bench" (ops.Sfs_nfs.Fs_intf.fs_lookup cred ~dir:ops.Sfs_nfs.Fs_intf.fs_root "bench") in
  ok "create" (ops.Sfs_nfs.Fs_intf.fs_create cred ~dir name ~mode:0o644)

(* One unstable WRITE: with gathering off (window 1) the cache passes it
   straight to the write-behind mux, as one "write/wb" call. *)
let write_behind_once (w : Stacks.world) (m : Client.mount) (fh : Sfs_nfs.Nfs_types.fh) : unit =
  let ops = Client.ops m in
  match ops.Sfs_nfs.Fs_intf.fs_write w.Stacks.cred fh ~off:0 ~stable:false "write-behind" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "write: %s" (Sfs_nfs.Nfs_types.status_to_string e)

(* A lost request charges nothing past the client's own work before the
   send: the failed attempt's span lasts exactly as long as the
   successful retry's client-side segments, and the retry starts no
   sooner than one backoff later. *)
let check_drop_charges_nothing (w : Stacks.world) ~(opname : string) (run : unit -> unit) : unit =
  run ();
  Testkit.check_int "one retry" 1 (Obs.counter w.Stacks.obs "recover.rpc_retry");
  (* The client's per-attempt spans, children of the cache's op root. *)
  let attempts =
    List.filter
      (fun s -> s.Obs.sp_cat = "op" && s.Obs.sp_name = opname && s.Obs.sp_parent <> 0)
      (Obs.spans w.Stacks.obs)
  in
  let failed, retry =
    match List.rev attempts with
    | retry :: failed :: _ -> (failed, retry)
    | _ -> Alcotest.fail "expected a failed attempt and its retry"
  in
  let sample =
    match List.rev (Obs.cp_samples w.Stacks.obs) with
    | s :: _ when s.Obs.cp_op = opname -> s
    | _ -> Alcotest.fail "retry not sampled"
  in
  let before_send =
    List.assoc "client" sample.Obs.cp_segments +. List.assoc "crypto_up" sample.Obs.cp_segments
  in
  Alcotest.(check (float 1e-6)) "failed attempt charged only pre-send work" before_send
    failed.Obs.sp_dur_us;
  let failed_end = failed.Obs.sp_start_us +. failed.Obs.sp_dur_us in
  Testkit.check_bool "retry waits out the backoff" true
    (retry.Obs.sp_start_us -. failed_end >= 50_000.0)

let test_serial_drop_charges_nothing () =
  let w, _, m, arm = tapped_serial_world () in
  arm Simnet.To_server (fun _ -> Simnet.Drop);
  check_drop_charges_nothing w ~opname:"getattr" (fun () -> getattr_root w m)

let test_write_behind_drop_charges_nothing () =
  let w, _, m, arm = tapped_serial_world () in
  let fh = fresh_file w m "wb-drop" in
  arm Simnet.To_server (fun _ -> Simnet.Drop);
  check_drop_charges_nothing w ~opname:"write/wb" (fun () -> write_behind_once w m fh)

(* A write-behind caller waits for [async_floor_us] of the round trip
   plus both messages' wire time: the reply's wire time is a segment of
   its own. *)
let test_write_behind_sample () =
  let w, tap, m, _ = tapped_serial_world () in
  let fh = fresh_file w m "wb-sample" in
  write_behind_once w m fh;
  let reply =
    match tap.Simnet.observed with
    | (Simnet.To_client, msg) :: _ -> msg
    | _ -> Alcotest.fail "no reply observed"
  in
  let sample =
    match List.rev (Obs.cp_samples w.Stacks.obs) with
    | s :: _ when s.Obs.cp_op = "write/wb" -> s
    | _ -> Alcotest.fail "write-behind not sampled"
  in
  let seg name = List.assoc name sample.Obs.cp_segments in
  Alcotest.(check (float 1e-9)) "latency is the async floor" Sfs_net.Costmodel.async_floor_us
    (seg "latency");
  Alcotest.(check (float 1e-9)) "down_wire is the sealed reply's wire time"
    (Sfs_net.Costmodel.transfer_us Sfs_net.Costmodel.Tcp (String.length reply))
    (seg "down_wire")

(* --- The oracle property --- *)

(* Derive a whole scenario (stack, rates, optional crash window, ops)
   from one integer.  Corruption is only thrown at SFS stacks: the MAC
   catches it and the client recovers.  On plain NFS corrupted bytes
   can silently change data — the paper's argument, not a bug in the
   harness — so the insecure baseline is only subjected to loss-shaped
   faults it can survive. *)
let scenario_of_seed (seed : int) : Stacks.stack * Fault.spec * op list =
  let r = Testkit.make_rand (seed * 2 + 1) in
  let stack = if r () land 1 = 0 then Stacks.Nfs_udp else Stacks.Sfs in
  let corrupt_pm = if stack = Stacks.Sfs then r () land 127 else 0 in
  let crashes =
    if r () land 3 = 0 then
      let t0 = 5_000.0 +. float_of_int (r () * 100) in
      [ { Fault.c_host = Stacks.server_location; c_down_us = t0; c_up_us = t0 +. 60_000.0 } ]
    else []
  in
  let spec =
    Fault.make
      ~seed:("oracle-" ^ string_of_int seed)
      ~drop_pm:(r () mod 300) ~dup_pm:(r () land 127) ~reorder_pm:(r () land 127) ~corrupt_pm
      ~delay_pm:(r () mod 500) ~delay_mean_us:(500 + (8 * (r ()))) ~delay_p99_us:30_000 ~crashes ()
  in
  (stack, spec, ops_of_seed seed)

(* The oracle: the faulty tree equals the tree a fresh [clean ()] world
   leaves after [ops] with some subset of the faulty run's given-up ops
   skipped, the empty subset (the full tree) first.  Denial is allowed
   — a given-up op may or may not have reached the server — but
   corruption never is, and an op that returned normally is never
   skipped. *)
let converges ~(clean : unit -> Stacks.world) (ops : op list) ~(gave_up : int list)
    (faulty : Stacks.world) : bool =
  let want = signature faulty.Stacks.server_fs in
  let rec subsets = function
    | [] -> [ [] ]
    | i :: rest ->
        let s = subsets rest in
        s @ List.map (fun l -> i :: l) s
  in
  List.exists
    (fun skip ->
      let w = clean () in
      run_ops w (List.filteri (fun i _ -> not (List.mem i skip)) ops);
      signature w.Stacks.server_fs = want)
    (subsets gave_up)

let oracle_prop =
  QCheck.Test.make ~count:100 ~name:"faulty run converges to the fault-free oracle"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let stack, spec, ops = scenario_of_seed seed in
      let faulty = Stacks.make ~fault:spec stack in
      let gave_up = run_recording faulty ops in
      converges ~clean:(fun () -> Stacks.make stack) ops ~gave_up faulty)

(* Seed 338826 gives up exactly one op, its last: a 280-byte write to
   d2/f2 that loses eight attempts in a row.  The write never lands, so
   the faulty tree is the clean tree of the first 16 ops — a denial,
   which the oracle accepts, where the full-tree comparison alone
   failed. *)
let test_oracle_gave_up_write () =
  let stack, spec, ops = scenario_of_seed 338826 in
  let faulty = Stacks.make ~fault:spec stack in
  let gave_up = run_recording faulty ops in
  let last = List.length ops - 1 in
  Alcotest.(check (list int)) "only the last op gave up" [ last ] gave_up;
  (match List.nth ops last with
  | Write ("d2/f2", data) -> Testkit.check_int "a 280-byte write" 280 (String.length data)
  | _ -> Alcotest.fail "last op is not the write to d2/f2");
  let clean = Stacks.make stack in
  run_ops clean ops;
  Testkit.check_bool "full clean tree differs" false
    (signature clean.Stacks.server_fs = signature faulty.Stacks.server_fs);
  Testkit.check_bool "clean tree of the first 16 ops matches" true
    (converges ~clean:(fun () -> Stacks.make stack) ops ~gave_up faulty)

(* --- Pipelining is invisible to correctness (DESIGN.md §11) --- *)

(* Sequential large-file traffic, big enough to trigger readahead runs
   (>= 8 consecutive blocks) and coalesced write-behind gathers on the
   pipelined stacks.  The re-reads hit whatever the prefetcher pulled
   in; the second file's odd tail length exercises the partial last
   block of a gather. *)
let seq_phase (seed : int) : op list =
  let r = Testkit.make_rand (seed + 17) in
  let big = Testkit.rand_string r (12 * 8192) in
  [
    Mkdir "seq";
    Write ("seq/big", big);
    Read "seq/big";
    Write ("seq/odd", String.sub big 0 ((3 * 8192) + 137));
    Read "seq/odd";
  ]

(* The signature reflects the server's tree, so a pipelined client must
   push any write-behind buffer out before we compare.  Faults may make
   the flush itself fail; like the workload, we shrug — convergence of
   the surviving state is what the property asserts. *)
let settle (w : Stacks.world) : unit =
  match w.Stacks.client_cache with
  | None -> ()
  | Some c -> (
      try Cachefs.flush_dirty c
      with Sfs_nfs.Nfs_client.Rpc_failure _ | Sfs_net.Simnet.Timeout -> ())

(* Windowed dispatch, readahead and write-behind re-account *time*;
   they must never change *state*: any pipelined configuration yields a
   server tree byte-identical to the fully serial client's. *)
let pipeline_equiv_prop =
  QCheck.Test.make ~count:60 ~name:"pipelined tree is byte-identical to serial"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let r = Testkit.make_rand (seed + 3) in
      let stack = if r () land 1 = 0 then Stacks.Nfs_udp else Stacks.Sfs in
      let window = [| 2; 4; 16 |].(r () mod 3) in
      let readahead = r () mod 24 in
      let ops = ops_of_seed seed @ seq_phase seed in
      let serial = Stacks.make ~rpc_window:1 ~readahead:0 stack in
      run_ops serial ops;
      let piped = Stacks.make ~rpc_window:window ~readahead stack in
      run_ops piped ops;
      settle piped;
      signature serial.Stacks.server_fs = signature piped.Stacks.server_fs)

(* And the same under fire: the existing oracle fault plans, replayed
   against a pipelined client, still converge to the serial fault-free
   tree — faults cost time, pipelining saves it, neither touches
   correctness. *)
let pipeline_fault_oracle_prop =
  QCheck.Test.make ~count:100
    ~name:"pipelined faulty run converges to the serial fault-free oracle"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let stack, spec, ops = scenario_of_seed seed in
      let ops = ops @ seq_phase seed in
      let faulty = Stacks.make ~fault:spec ~rpc_window:(2 + (seed mod 15)) stack in
      let gave_up = run_recording faulty ops in
      settle faulty;
      converges ~clean:(fun () -> Stacks.make ~rpc_window:1 ~readahead:0 stack) ops ~gave_up faulty)

let suite =
  ( "fault",
    [
      Alcotest.test_case "empty plan is a no-op" `Quick test_empty_plan;
      Alcotest.test_case "same-seed ledger determinism" `Quick test_ledger_determinism;
      Alcotest.test_case "retransmit cache absorbs duplicates" `Quick test_retransmit_cache;
      Alcotest.test_case "crash window: reconnect + reauth" `Quick test_crash_recovery;
      Alcotest.test_case "serial reply MAC mismatch recovers" `Quick test_serial_mac_mismatch;
      Alcotest.test_case "serial replayed reply recovers" `Quick test_serial_replay;
      Alcotest.test_case "reply-path recovery counters" `Quick test_reply_path_counters;
      Alcotest.test_case "serial dropped request charges nothing" `Quick
        test_serial_drop_charges_nothing;
      Alcotest.test_case "write-behind dropped request charges nothing" `Quick
        test_write_behind_drop_charges_nothing;
      Alcotest.test_case "write-behind sample prices the reply wire" `Quick
        test_write_behind_sample;
      Alcotest.test_case "oracle accepts a given-up write (seed 338826)" `Quick
        test_oracle_gave_up_write;
    ]
    @ Testkit.to_alcotest [ oracle_prop; pipeline_equiv_prop; pipeline_fault_oracle_prop ] )
