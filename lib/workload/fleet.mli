(** Fleet-scale simulation, the read-write kind of the {!Crowd} engine
    (DESIGN.md §15): thousands of clients mount (key negotiation),
    authenticate through their agents and run Cachefs micro-ops against
    a farm of sfssd servers fronted by a sharded authserv ring
    ({!Sfs_core.Authshard}). *)

(** What each client does after mounting: the original hot-file lease
    fan-in mix, or the flash-crowd Zipf read mix over a two-level
    [dirs] x [files_per_dir] tree — the same layout {!Flashcrowd}
    serves from read-only mirrors, so the read-write arm of the CDN
    figure is apples-to-apples. *)
type workload =
  | Hotfile
  | Zipf of { dirs : int; files_per_dir : int; file_bytes : int; theta : float }

type arrival = Crowd.arrival = Stagger of float | Ramp of float

type config = {
  clients : int;
  servers : int;
  auth_shards : int;
  user_pool : int;  (** distinct users/keys, shared round-robin *)
  window : int;  (** rpc window; 1 = fully serial clients *)
  readahead : int;
  ops_per_client : int;
  admit_per_server : int option;  (** connection admission cap *)
  hot_write_every : int;  (** every k-th client also writes the hot file *)
  seed : string;
  fault : Sfs_fault.Fault.spec option;
  workload : workload;
  arrival : arrival;
}

val default : config
(** A small smoke-sized fleet (8 clients, 2 servers, 2 shards, mounts
    staggered 200 us apart). *)

type result = {
  r_cfg : config;
  r_completed : int;
  r_failed : int;
  r_mount_ok : int;
  r_mount_failed : int;
  r_mount_retries : int;
  r_last_ready_us : float;
  r_op_lat : Sfs_obs.Sketch.t;  (** per-op latency, microseconds *)
  r_mount_lat : Sfs_obs.Sketch.t;
  r_dropped_invals : int;  (** invalidations pending at unmount *)
  r_events : int;
  r_servers : Sfs_core.Server.t array;
  r_hosts : Sfs_net.Simnet.host array;
  r_obs : Sfs_obs.Obs.registry;
}

val run : config -> result
(** Build the world (servers, shards, seeded files, clients), let the
    clients arrive and pump the event queue dry.  Deterministic: same
    config, byte-identical {!ledger}. *)

val throughput_ops_s : result -> float
(** Completed ops over the full simulated span (mounts included). *)

val reconcile : result -> (string * bool) list
(** Named invariants balancing obs counters against live state: DRC
    insert/evict vs entries, lease invalidations sent vs applied +
    pending (both sides), admission/connection closure, authshard
    routing.  All must hold on fault-free runs. *)

val ledger : result -> string
(** Counters, sketches and tallies, one sorted line each — the
    byte-identity artifact for the determinism gates. *)

val zipf_cdf : n:int -> theta:float -> float array
(** {!Crowd.zipf_cdf}. *)

val zipf_sample : float array -> Sfs_crypto.Prng.t -> int
(** {!Crowd.zipf_sample}. *)
