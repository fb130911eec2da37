(* Chaos-soak sample: 31 seeded fault plans (25 against the pipelined
   read-write fleet, 6 against the read-only replica tier), each run
   TWICE.  A plan passes when every client finishes, every crash and
   partition window opens before the run drains (a window that opens
   later acts on nothing), both runs produce a byte-identical ledger,
   and a faulted plan's ledger differs from its world's fault-free
   plan's (`clean` or `ro-clean`: an equal ledger means the faults
   acted on nothing); each plan's line ends with the ledger's SHA-1,
   so two builds' soak logs diff plan by plan.
   Fault-free reconciliation invariants are NOT asserted here (crash
   windows legitimately strand lease state); the workload tests cover
   those.  CI runs a budgeted sample per push, rotated by the commit
   SHA (--sha); `make soak` runs the whole corpus.

   Usage:
     soak.exe [--plans N] [--offset K | --sha HEX] [--clients N] [--list]
*)

module Fleet = Sfs_workload.Fleet
module Flashcrowd = Sfs_workload.Flashcrowd
module Fault = Sfs_fault.Fault

(* Which world a plan soaks: the read-write fleet, or the read-only
   replica tier (publisher + mirrors + flash crowd, with a mid-crowd
   incremental republish so fan-out and client root refresh both run
   inside every fault window). *)
type world = Rw | Ro

(* --- the corpus: 31 named, seeded plans --- *)

let crash ~host ~down_s ~up_s =
  { Fault.c_host = host; c_down_us = down_s *. 1e6; c_up_us = up_s *. 1e6 }

let part ~a ~b ~from_s ~until_s =
  { Fault.pa = a; pb = b; p_from_us = from_s *. 1e6; p_until_us = until_s *. 1e6 }

let srv i = Printf.sprintf "srv%d.fleet.lcs.mit.edu" i
let mir i = Flashcrowd.mirror_loc i

(* A plan: its name, world, fault spec, and each crash or partition
   window with the instant it opens. *)
type plan = { name : string; world : world; spec : Fault.spec; windows : (string * float) list }

let plan ?(world = Rw) name ?drop_pm ?dup_pm ?reorder_pm ?corrupt_pm ?delay_pm ?delay_mean_us
    ?delay_p99_us ?(partitions = []) ?(crashes = []) () =
  let windows =
    List.map (fun c -> (Printf.sprintf "crash %s" c.Fault.c_host, c.Fault.c_down_us)) crashes
    @ List.map
        (fun p -> (Printf.sprintf "partition %s|%s" p.Fault.pa p.Fault.pb, p.Fault.p_from_us))
        partitions
  in
  {
    name;
    world;
    spec =
      Fault.make ?drop_pm ?dup_pm ?reorder_pm ?corrupt_pm ?delay_pm ?delay_mean_us ?delay_p99_us
        ~partitions ~crashes ~seed:("soak/" ^ name) ();
    windows;
  }

let plans : plan list =
  [
    plan "clean" ();
    plan "drop-tiny" ~drop_pm:5 ();
    plan "drop-1pct" ~drop_pm:100 ();
    plan "drop-heavy" ~drop_pm:400 ();
    plan "dup-tiny" ~dup_pm:5 ();
    plan "dup-1pct" ~dup_pm:100 ();
    plan "reorder-1pct" ~reorder_pm:100 ();
    plan "reorder-heavy" ~reorder_pm:500 ();
    plan "corrupt-tiny" ~corrupt_pm:5 ();
    plan "corrupt-1pct" ~corrupt_pm:100 ();
    plan "delay-mild" ~delay_pm:500 ~delay_mean_us:2_000 ~delay_p99_us:20_000 ();
    plan "delay-spiky" ~delay_pm:200 ~delay_mean_us:10_000 ~delay_p99_us:200_000 ();
    plan "drop+dup" ~drop_pm:100 ~dup_pm:100 ();
    plan "drop+delay" ~drop_pm:100 ~delay_pm:300 ~delay_mean_us:5_000 ~delay_p99_us:50_000 ();
    plan "dup+reorder" ~dup_pm:100 ~reorder_pm:200 ();
    plan "corrupt+drop" ~corrupt_pm:50 ~drop_pm:50 ();
    plan "kitchen-sink" ~drop_pm:50 ~dup_pm:50 ~reorder_pm:50 ~corrupt_pm:25 ~delay_pm:100
      ~delay_mean_us:3_000 ~delay_p99_us:30_000 ();
    plan "crash-early" ~crashes:[ crash ~host:(srv 0) ~down_s:0.05 ~up_s:0.2 ] ();
    plan "crash-mid" ~crashes:[ crash ~host:(srv 1) ~down_s:0.08 ~up_s:0.12 ] ();
    plan "crash-both" ~crashes:[ crash ~host:(srv 0) ~down_s:0.1 ~up_s:0.3; crash ~host:(srv 1) ~down_s:0.06 ~up_s:0.12 ] ();
    plan "crash+drop" ~drop_pm:100 ~crashes:[ crash ~host:(srv 0) ~down_s:0.2 ~up_s:0.5 ] ();
    plan "flap" ~crashes:[ crash ~host:(srv 0) ~down_s:0.03 ~up_s:0.05; crash ~host:(srv 0) ~down_s:0.08 ~up_s:0.1; crash ~host:(srv 0) ~down_s:0.13 ~up_s:0.15 ] ();
    plan "partition-early" ~partitions:[ part ~a:"c0.client.fleet" ~b:(srv 0) ~from_s:0.0 ~until_s:0.3 ] ();
    plan "partition+delay" ~delay_pm:200 ~delay_mean_us:2_000 ~delay_p99_us:20_000 ~partitions:[ part ~a:"c1.client.fleet" ~b:(srv 1) ~from_s:0.1 ~until_s:0.4 ] ();
    plan "partition+crash" ~partitions:[ part ~a:"c2.client.fleet" ~b:(srv 0) ~from_s:0.0 ~until_s:0.2 ] ~crashes:[ crash ~host:(srv 1) ~down_s:0.05 ~up_s:0.1 ] ();
    (* Read-only tier.  Mirror crashes kill connections, not the object
       store; the publisher<->mirror partition spans the republish, so
       one mirror serves the old root until the next fan-out. *)
    plan ~world:Ro "ro-clean" ();
    plan ~world:Ro "ro-mirror-crash-mid" ~crashes:[ crash ~host:(mir 0) ~down_s:0.06 ~up_s:0.16 ] ();
    plan ~world:Ro "ro-mirror-flap" ~crashes:[ crash ~host:(mir 1) ~down_s:0.03 ~up_s:0.05; crash ~host:(mir 1) ~down_s:0.09 ~up_s:0.11; crash ~host:(mir 1) ~down_s:0.13 ~up_s:0.15 ] ();
    plan ~world:Ro "ro-publisher-partition" ~partitions:[ part ~a:Flashcrowd.publisher_loc ~b:(mir 0) ~from_s:0.05 ~until_s:0.3 ] ();
    plan ~world:Ro "ro-drop-1pct" ~drop_pm:100 ();
    plan ~world:Ro "ro-corrupt-1pct" ~corrupt_pm:100 ();
  ]

(* --- one soak: run a plan twice, demand byte-identical ledgers --- *)

(* One run of a plan's world: its ledger, how many clients finished,
   the instant the run drained, and a one-line summary.  The ro world republishes at 120 ms, so
   every ro plan runs fan-out resume and client root refresh under the
   fault, not just the steady serving path. *)
let run_world ~clients (world : world) (spec : Fault.spec) : string * int * float * string =
  let admit = Some (max 4 (clients / 2)) in
  match world with
  | Rw ->
      let r =
        Fleet.run
          {
            Fleet.default with
            Fleet.clients;
            servers = 2;
            auth_shards = 2;
            user_pool = 8;
            ops_per_client = 6;
            admit_per_server = admit;
            hot_write_every = 10;
            seed = "soak";
            fault = Some spec;
          }
      in
      ( Fleet.ledger r,
        r.Fleet.r_mount_ok,
        r.Fleet.r_last_ready_us,
        Printf.sprintf "mounts %d/%d  ops ok %d failed %d  redials %d" r.Fleet.r_mount_ok clients
          r.Fleet.r_completed r.Fleet.r_failed r.Fleet.r_mount_retries )
  | Ro ->
      let r =
        Flashcrowd.run
          {
            Flashcrowd.default with
            Flashcrowd.clients;
            replicas = 3;
            reads_per_client = 6;
            admit_per_mirror = admit;
            republish_at_us = Some 120_000.0;
            seed = "soak-ro";
            fault = Some spec;
          }
      in
      ( Flashcrowd.ledger r,
        r.Flashcrowd.r_clients_ok,
        r.Flashcrowd.r_last_ready_us,
        Printf.sprintf "clients %d/%d  reads ok %d failed %d  failovers %d retries %d"
          r.Flashcrowd.r_clients_ok clients r.Flashcrowd.r_reads_ok r.Flashcrowd.r_reads_failed
          r.Flashcrowd.r_failovers r.Flashcrowd.r_retries )

(* Each world's fault-free plan, whose ledger a faulted plan must not
   reproduce. *)
let reference (world : world) : plan =
  let name = match world with Rw -> "clean" | Ro -> "ro-clean" in
  List.find (fun p -> p.name = name) plans

(* The fault-free ledgers met so far, by world: a sampled run that
   does not include the reference plan runs it once more. *)
let reference_ledgers : (world, string) Hashtbl.t = Hashtbl.create 2

let reference_ledger ~clients (world : world) : string =
  match Hashtbl.find_opt reference_ledgers world with
  | Some l -> l
  | None ->
      let l, _, _, _ = run_world ~clients world (reference world).spec in
      Hashtbl.replace reference_ledgers world l;
      l

let run_plan ~clients (p : plan) : bool =
  let l1, finished, drained_us, summary = run_world ~clients p.world p.spec in
  let l2, _, _, _ = run_world ~clients p.world p.spec in
  let identical = String.equal l1 l2 and all_finished = finished = clients in
  let late = List.filter (fun (_, opens_us) -> opens_us >= drained_us) p.windows in
  let ref_name = (reference p.world).name in
  if p.name = ref_name then Hashtbl.replace reference_ledgers p.world l1;
  let inert = p.name <> ref_name && String.equal l1 (reference_ledger ~clients p.world) in
  let ok = identical && all_finished && late = [] && not inert in
  Printf.printf "  %-22s %s  %s  sha1 %s%s\n" p.name
    (if ok then "PASS" else "FAIL")
    summary
    (Sfs_util.Hex.encode (Sfs_crypto.Sha1.digest l1))
    (if identical then "" else "  <- ledgers diverged between identical runs");
  if not all_finished then Printf.printf "      only %d of %d clients finished\n" finished clients;
  List.iter
    (fun (window, opens_us) ->
      Printf.printf "      %s opens at %.0f us, after the run drained at %.0f us\n" window opens_us
        drained_us)
    late;
  if inert then Printf.printf "      ledger equals %s's: the faults acted on nothing\n" ref_name;
  ok

(* Deterministic rotation: the first 8 hex digits of the commit SHA
   (the low 24 bits of them) pick where in the corpus this push's
   sample starts. *)
let offset_of_sha (sha : string) : int =
  Option.value ~default:0 (int_of_string_opt ("0x" ^ String.sub sha 0 (min 8 (String.length sha))))
  land 0xFFFFFF

let () =
  let n_plans = ref (List.length plans) and offset = ref 0 and clients = ref 60 in
  let list_only = ref false in
  Arg.parse
    [
      ("--plans", Arg.Set_int n_plans, "N  run N plans (default: the whole corpus)");
      ("--offset", Arg.Set_int offset, "K  start at corpus index K");
      ( "--sha",
        Arg.String (fun sha -> offset := offset_of_sha sha),
        "HEX  start where the commit SHA says" );
      ("--clients", Arg.Set_int clients, "N  clients per plan (default 60)");
      ("--list", Arg.Set list_only, " list the corpus and exit");
    ]
    (fun a -> raise (Arg.Bad ("unknown argument " ^ a)))
    "soak.exe [--plans N] [--offset K | --sha HEX] [--clients N] [--list]";
  if !list_only then List.iter (fun p -> print_endline p.name) plans
  else begin
    let total = List.length plans in
    let count = min !n_plans total in
    let start = !offset mod total in
    let sample = List.init count (fun i -> List.nth plans ((start + i) mod total)) in
    Printf.printf
      "Chaos soak: %d plan(s) starting at corpus index %d, %d clients per plan\n\
       (rw plans: pipelined fleet, 2 servers; ro plans: flash crowd, publisher + 3 mirrors)\n\
       (each plan runs twice; ledgers must be byte-identical, every client must finish,\n\
       \ every crash and partition window must open before the run drains, and a faulted\n\
       \ plan's ledger must differ from its world's fault-free plan's)\n\n"
      count start !clients;
    (* every plan runs, so one log names every failing plan *)
    let ok = List.for_all Fun.id (List.map (run_plan ~clients:!clients) sample) in
    print_newline ();
    if ok then print_endline "soak: all plans passed"
    else begin
      print_endline "soak: FAILURE — see above";
      exit 1
    end
  end
