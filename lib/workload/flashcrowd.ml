(* Flash-crowd simulation, the read-only kind of the Crowd engine
   (flashcrowd.mli).  Clients hold mirror pathnames, never a key, and
   mount and read as Client.mount_readonly does; per-client state is a
   slim record plus a verification cache, and mirrors burn no
   cryptography per request, so capacity scales with the replicas. *)

module Simclock = Sfs_net.Simclock
module Simnet = Sfs_net.Simnet
module Memfs = Sfs_nfs.Memfs
module Fs_intf = Sfs_nfs.Fs_intf
module Nfs_types = Sfs_nfs.Nfs_types
module Prng = Sfs_crypto.Prng
module Rabin = Sfs_crypto.Rabin
module Keyneg = Sfs_proto.Keyneg
module Core = Sfs_core
module Ro = Sfs_proto.Readonly_proto
module Obs = Sfs_obs.Obs
module Sketch = Sfs_obs.Sketch

type config = {
  clients : int;
  replicas : int; (* mirrors serving the snapshot *)
  dirs : int;
  files_per_dir : int;
  file_bytes : int;
  theta : float; (* Zipf exponent for file popularity *)
  reads_per_client : int;
  vcache_objs : int; (* per-client verification cache bound *)
  admit_per_mirror : int option;
  ramp_us : float; (* the whole crowd arrives within this window *)
  republish_at_us : float option; (* mid-crowd rewrite, incremental publish, fan-out *)
  seed : string;
  fault : Sfs_fault.Fault.spec option;
}

let default : config =
  {
    clients = 64;
    replicas = 2;
    dirs = 4;
    files_per_dir = 16;
    file_bytes = 2048;
    theta = 1.0;
    reads_per_client = 4;
    vcache_objs = 4096;
    admit_per_mirror = None;
    ramp_us = 50_000.0;
    republish_at_us = None;
    seed = "flashcrowd";
    fault = None;
  }

(* Fixed for every crowd. *)
let attempt_limit = 1000 (* consecutive failures before a client gives up *)
let key_bits = 512

type result = {
  r_cfg : config;
  r_reads_ok : int;
  r_reads_failed : int;
  r_clients_ok : int; (* finished all their reads *)
  r_clients_failed : int; (* gave up (attempt limit) *)
  r_failovers : int; (* re-dials to a different mirror *)
  r_retries : int; (* verify-failure retries against the same tree *)
  r_bad_content : int; (* reads whose bytes matched no published generation *)
  r_republishes : int;
  r_fanout_failures : int;
  r_last_ready_us : float;
  r_read_lat : Sketch.t; (* per-read latency, microseconds *)
  r_connect_lat : Sketch.t;
  r_events : int;
  r_mirrors : Core.Replica.mirror array;
  r_mhosts : Simnet.host array;
  r_publisher : Core.Replica.publisher;
  r_obs : Obs.registry;
}

let throughput_reads_s (r : result) : float =
  Crowd.throughput r.r_reads_ok ~last_ready_us:r.r_last_ready_us

let publisher_loc : string = "publisher.ro.fleet"
let mirror_loc (m : int) : string = Printf.sprintf "mirror%d.ro.fleet" m
let client_loc (i : int) : string = Printf.sprintf "c%d.ro.client" i

(* Slim per-client state: this record plus a bounded Vcache is the
   whole footprint — compare Fleet's cl, which drags a full Core.Client
   (keyed channel, Cachefs, agent, mux) per connection. *)
type rcl = {
  from : string; (* this client's host name *)
  rng : Prng.t;
  mutable conn : (Simnet.conn * (string -> string)) option; (* the dial's connection, exchange *)
  mutable mirror : int; (* index of the mirror pathname currently dialed *)
  mutable counted : bool; (* whether [mirror]'s load counts this client *)
  mutable avoid : int list; (* distinct mirrors this client failed over from *)
  mutable ro : (Core.Readonly.client * Fs_intf.ops) option; (* survives every failover *)
  mutable pending : int; (* file index mid-retry, or -1 *)
}

(* A client's read (flashcrowd.mli); a lost message raises out of [ops]. *)
let read (ops : Fs_intf.ops) ~(root : string) (names : string list) :
    (string, Crowd.failure) Stdlib.result =
  let failed = function Nfs_types.NFS3ERR_IO -> Error Crowd.Refresh | _ -> Error Crowd.Fatal in
  let cred = Sfs_os.Simos.anonymous_cred in
  let rec go fh size = function
    | name :: rest -> (
        match ops.Fs_intf.fs_lookup cred ~dir:fh name with
        | Ok (fh, attr) -> go fh attr.Nfs_types.size rest
        | Error e -> failed e)
    | [] -> (
        match ops.Fs_intf.fs_read cred fh ~off:0 ~count:size with
        | Ok (data, _, _) -> Ok data
        | Error e -> failed e)
  in
  go root 0 names

let rec all_bytes (data : string) (b : char) (i : int) : bool =
  i >= String.length data || (data.[i] = b && all_bytes data b (i + 1))

let run ?tap (cfg : config) : result =
  if cfg.clients < 1 || cfg.replicas < 1 || cfg.dirs < 1 || cfg.files_per_dir < 1 then
    invalid_arg "Flashcrowd.run: counts must be positive";
  let w = Crowd.world () in
  let clock = w.Crowd.clock and obs = w.Crowd.obs and net = w.Crowd.net in
  Simnet.set_default_tap net tap;
  (* --- the publisher: file tree, private key, snapshot --- *)
  ignore (Simnet.add_host net publisher_loc);
  let now () = Sfs_nfs.Nfs_types.time_of_us (Simclock.now_us clock) in
  let fs = Memfs.create ~fsid:7 ~now () in
  let dirs =
    Crowd.seed_zipf_tree fs ~parent:Memfs.root_id ~dirs:cfg.dirs ~files_per_dir:cfg.files_per_dir
      ~file_bytes:cfg.file_bytes
  in
  let key = Rabin.generate ~bits:key_bits (Prng.create [ cfg.seed; "rokey" ]) in
  let publisher = Core.Replica.publisher ~obs ~net ~host:publisher_loc ~key ~clock fs in
  ignore (Core.Replica.publish publisher);
  (* --- the mirror tier --- *)
  let mirrors =
    Array.init cfg.replicas (fun m ->
        Core.Replica.mirror ~obs ~clock ~location:(mirror_loc m) ~pubkey:key.Rabin.pub ())
  in
  let mhosts =
    Array.map
      (fun mi ->
        let h = Core.Replica.attach net mi in
        Simnet.set_admission h cfg.admit_per_mirror;
        h)
      mirrors
  in
  (* What the crowd is handed: each mirror's own pathname. *)
  let paths = Array.map Core.Replica.path mirrors in
  let targets =
    Array.to_list (Array.init cfg.replicas (fun m -> Core.Replica.target ~addr:(mirror_loc m)))
  in
  let fanout_failures = ref (Core.Replica.fan_out publisher targets) in
  let cdf = Crowd.zipf_cdf ~n:(cfg.dirs * cfg.files_per_dir) ~theta:cfg.theta in
  let bad_content = ref 0 and republishes = ref 0 in
  let cls =
    Array.init cfg.clients (fun i ->
        ignore (Simnet.add_host net (client_loc i));
        {
          from = client_loc i;
          rng = Prng.create [ cfg.seed; "roclient"; string_of_int i ];
          conn = None;
          mirror = i mod cfg.replicas;
          counted = false;
          avoid = [];
          ro = None;
          pending = -1;
        })
  in
  (* Each mirror's load: the crowd's clients on it, each counted from
     its pick, so a burst of failovers spreads before any dial lands,
     until its dial fails or its connection drops.  The host's own count
     would also hold the publisher's push connection, which a failed
     fan-out drops. *)
  let clients_on = Array.make cfg.replicas 0 in
  let count (c : rcl) (counted : bool) : unit =
    if c.counted <> counted then begin
      c.counted <- counted;
      clients_on.(c.mirror) <- (clients_on.(c.mirror) + if counted then 1 else -1)
    end
  in
  let drop_conn (c : rcl) : unit =
    count c false;
    match c.conn with
    | None -> ()
    | Some (conn, _) ->
        Simnet.close conn;
        c.conn <- None
  in
  (* Least-loaded failover (fewest clients, lowest index on ties) among the
     mirrors this client has not failed over from.  A mirror that refused the connect
     step holds no connection, and a crashed one loses its clients as they leave, so
     either would soon look least loaded; once the client has left every mirror, all
     are tried again. *)
  let pick_mirror (c : rcl) : int =
    if List.length c.avoid = cfg.replicas then c.avoid <- [];
    let load m = if List.mem m c.avoid then max_int else clients_on.(m) in
    let best = ref 0 in
    for m = 1 to cfg.replicas - 1 do
      if load m < load !best then best := m
    done;
    !best
  in
  (* Read at call time: one verification cache survives every failover. *)
  let exchange (c : rcl) (bytes : string) : string =
    match c.conn with None -> raise Simnet.Timeout | Some (_, call) -> call bytes
  in
  (* One flash-crowd read through the verification cache, every byte
     checked against the published generations: a wrong byte would be
     unverified data reaching the application, asserted zero by
     [reconcile]. *)
  let do_read (c : rcl) : (unit, Crowd.failure) Stdlib.result =
    let ro, ops = match c.ro with Some v -> v | None -> assert false in
    let file = if c.pending >= 0 then c.pending else Crowd.zipf_sample cdf c.rng in
    c.pending <- file;
    let d, f = Crowd.zipf_names ~files_per_dir:cfg.files_per_dir file in
    match read ops ~root:(Core.Readonly.current_fsinfo ro).Ro.root_hash [ d; f ] with
    | Error _ as e -> e
    | Ok data ->
        (* Either generation is fine (a republish rewrites the hottest
           file per directory with 'Z'), checked in place. *)
        if
          String.length data = cfg.file_bytes
          && (cfg.file_bytes = 0
             ||
             let b = data.[0] in
             (b = 'Z' || b = Crowd.zipf_file_char file) && all_bytes data b 1)
        then begin
          c.pending <- -1;
          Obs.incr (Some obs) "ro.reads";
          Ok ()
        end
        else begin
          incr bad_content;
          Error Crowd.Fatal
        end
  in
  (* The two calls of Client.mount_readonly.  The dial closes the
     connection on every refusal, so no byte is read from a refusing
     mirror; a key the pathname does not name fails over, since a
     reply corrupted in the clear refuses the same way (DESIGN §15). *)
  let do_connect (c : rcl) : (unit, Crowd.failure) Stdlib.result =
    let path = paths.(c.mirror) in
    count c true;
    match
      Keyneg.dial net ~from_host:c.from ~location:(Core.Pathname.location path)
        ~hostid:(Core.Pathname.hostid path) ~service:Keyneg.Fs_readonly ~extensions:[]
    with
    | Error e ->
        count c false;
        Error (match e with Keyneg.Revoked _ -> Crowd.Fatal | Keyneg.Unreachable | Keyneg.Refused _ -> Crowd.Retry)
    | Ok (conn, call, pubkey) ->
        c.conn <- Some (conn, call);
        (* on a reconnect the root is already verified *)
        if Option.is_none c.ro then begin
          let ro =
            Core.Readonly.connect ~obs ~cache_objs:cfg.vcache_objs ~exchange:(exchange c) ~pubkey
              ~clock ()
          in
          c.ro <- Some (ro, Core.Readonly.ops ro)
        end;
        Ok ()
  in
  let kind =
    {
      Crowd.host = (fun c -> mhosts.(c.mirror));
      connect = do_connect;
      op = (fun c _ -> do_read c);
      redial =
        (fun c ->
          Obs.incr (Some obs) "ro.client.failover";
          drop_conn c;
          if not (List.mem c.mirror c.avoid) then c.avoid <- c.mirror :: c.avoid;
          c.mirror <- pick_mirror c;
          count c true);
      refresh =
        (fun c ->
          Obs.incr (Some obs) "ro.client.retry";
          match c.ro with
          (* sfstaint: allow TNT004 — refresh raises Verification_failed with protocol text only; the client's Zipf Prng is not part of the exception *)
          | Some (ro, _) -> Core.Readonly.refresh ro
          | None -> ());
      finish = drop_conn;
      retry_ops = true;
      retry_limit = attempt_limit;
    }
  in
  (* Mid-crowd republish: rewrite the hottest file of every directory,
     snapshot incrementally, fan the delta out.  The fan-out's serving
     slices land on each mirror's run queue, competing with the crowd. *)
  let ev_republish () =
    let t0 = Simclock.now_us clock in
    let s0 = Array.map Simnet.host_served_us mhosts in
    let (), d =
      (* sfstaint: allow TNT004 — absorb re-raises the action's exception untouched after restoring the clock; the signing key never appears in a message *)
      Simclock.absorb clock (fun () ->
          let fresh = String.make cfg.file_bytes 'Z' in
          Array.iter (fun dir -> Crowd.write_file fs ~dir "f0" fresh) dirs;
          ignore (Core.Replica.publish publisher);
          fanout_failures := !fanout_failures + Core.Replica.fan_out publisher targets;
          incr republishes)
    in
    Array.iteri
      (fun m h ->
        let s = Simnet.host_served_us h -. s0.(m) in
        if s > 0.0 then ignore (Simnet.host_occupy h ~at_us:t0 ~dur_us:s))
      mhosts;
    t0 +. d
  in
  let extra = match cfg.republish_at_us with Some at -> [ (at, ev_republish) ] | None -> [] in
  let t =
    Crowd.run w kind ~arrival:(Crowd.Ramp cfg.ramp_us) ~ops:cfg.reads_per_client ~fault:cfg.fault
      ~extra cls
  in
  List.iter Core.Replica.disconnect targets;
  {
    r_cfg = cfg;
    r_reads_ok = t.Crowd.ops_ok;
    r_reads_failed = t.Crowd.ops_abandoned;
    r_clients_ok = t.Crowd.finished;
    r_clients_failed = t.Crowd.gave_up;
    r_failovers = t.Crowd.redials;
    r_retries = t.Crowd.refreshes;
    r_bad_content = !bad_content;
    r_republishes = !republishes;
    r_fanout_failures = !fanout_failures;
    r_last_ready_us = t.Crowd.last_ready_us;
    r_read_lat = t.Crowd.op_lat;
    r_connect_lat = t.Crowd.connect_lat;
    r_events = t.Crowd.events;
    r_mirrors = mirrors;
    r_mhosts = mhosts;
    r_publisher = publisher;
    r_obs = obs;
  }

let reconcile (r : result) : (string * bool) list =
  let snap = Obs.snapshot r.r_obs in
  let ctr name = Obs.snap_counter snap name in
  let snap_objs, serial =
    match Core.Replica.current r.r_publisher with
    | Some s -> (Core.Readonly.object_count s, Some (Core.Readonly.fsinfo s).Ro.serial)
    | None -> (-1, None)
  in
  [
    ("all_arrived", r.r_clients_ok + r.r_clients_failed = r.r_cfg.clients);
    ( "reads_accounted",
      r.r_reads_ok + r.r_reads_failed = r.r_cfg.clients * r.r_cfg.reads_per_client );
    ("no_unverified_bytes", r.r_bad_content = 0 && ctr "ro.verify.fail" = 0);
    (* every served object was verified; every verified object was served *)
    ("serve_balance", ctr "ro.serve.objs" = ctr "ro.verify.ok" + ctr "ro.verify.fail");
    ("serve_bytes_balance", ctr "ro.serve.bytes" = ctr "ro.verify.bytes");
    (* every application read was a cache hit or a fresh verification *)
    ("verify_balance", ctr "ro.verify.hit" + ctr "ro.verify.ok" >= 3 * r.r_reads_ok);
    ( "mirrors_synced",
      Array.for_all
        (fun m ->
          Core.Replica.mirror_objects m = snap_objs
          && Option.map (fun i -> i.Ro.serial) (Core.Replica.mirror_root m) = serial)
        r.r_mirrors );
    ("all_conns_closed", Array.for_all (fun h -> Simnet.host_active_conns h = 0) r.r_mhosts);
    ("fanout_clean", r.r_fanout_failures = 0);
  ]

let ledger (r : result) : string =
  let c = r.r_cfg in
  Crowd.ledger r.r_obs
    ~header:
      (Printf.sprintf "flashcrowd clients=%d replicas=%d files=%d file_bytes=%d reads=%d" c.clients
         c.replicas (c.dirs * c.files_per_dir) c.file_bytes c.reads_per_client)
    ~tally:
      (Printf.sprintf
         "tally reads_ok=%d reads_failed=%d clients_ok=%d clients_failed=%d failovers=%d \
          retries=%d republishes=%d"
         r.r_reads_ok r.r_reads_failed r.r_clients_ok r.r_clients_failed r.r_failovers r.r_retries
         r.r_republishes)
    ~last_ready_us:r.r_last_ready_us
    ~sketches:[ ("read_lat", r.r_read_lat); ("connect_lat", r.r_connect_lat) ]
