(** Flash-crowd simulation: the read-only dialect as a CDN tier, and
    the read-only kind of the {!Crowd} engine.  A publisher signs a
    snapshot and fans it out to N untrusted mirrors
    ({!Sfs_core.Replica}); read-only clients arrive on
    [Crowd.Ramp ramp_us], read Zipf-popular files through per-client
    verification caches, and fail over to the least-loaded mirror.  A
    client gives up after 1000 consecutive failures; the publisher
    signs with a 512-bit key and a one-day validity window. *)

type config = {
  clients : int;
  replicas : int;  (** mirrors serving the snapshot *)
  dirs : int;
  files_per_dir : int;
  file_bytes : int;
  theta : float;  (** Zipf exponent for file popularity *)
  reads_per_client : int;
  vcache_objs : int;  (** per-client verification cache bound *)
  admit_per_mirror : int option;
  ramp_us : float;  (** the whole crowd arrives within this window *)
  republish_at_us : float option;
      (** mid-crowd incremental publish + fan-out (tests eviction and
          client root refresh under load) *)
  seed : string;
  fault : Sfs_fault.Fault.spec option;
}

val default : config
(** A smoke-sized crowd (64 clients, 2 mirrors). *)

type result = {
  r_cfg : config;
  r_reads_ok : int;
  r_reads_failed : int;
  r_clients_ok : int;
  r_clients_failed : int;
  r_failovers : int;  (** re-dials to a different (or the same) mirror *)
  r_retries : int;  (** verify-failure retries (refresh + re-walk) *)
  r_bad_content : int;  (** reads matching no published generation *)
  r_republishes : int;
  r_fanout_failures : int;
  r_last_ready_us : float;
  r_read_lat : Sfs_obs.Sketch.t;  (** per-read latency, microseconds *)
  r_connect_lat : Sfs_obs.Sketch.t;
  r_events : int;
  r_mirrors : Sfs_core.Replica.mirror array;
  r_mhosts : Sfs_net.Simnet.host array;
  r_publisher : Sfs_core.Replica.publisher;
  r_obs : Sfs_obs.Obs.registry;
}

val run : ?tap:Sfs_net.Simnet.tap -> config -> result
(** Publish, fan out, ramp the crowd in, pump the event queue dry.
    Deterministic: same config, byte-identical {!ledger}.  [tap]
    becomes the network's default tap, so it observes every exchange
    (the reply byte pins). *)

val throughput_reads_s : result -> float

val reconcile : result -> (string * bool) list
(** Named invariants, exact on fault-free runs.  The load-bearing one
    is [no_unverified_bytes]: nothing an application read escaped the
    hash chain — objects served by mirrors balance against
    verifications, bytes served balance against bytes verified. *)

val ledger : result -> string
(** Byte-identity artifact for the determinism gates (config, tallies,
    sketches, sorted counters). *)

(* sfslint: allow SL014 — its missing-path verdicts, which Flashcrowd.run never meets, are pinned by a unit test *)
val walk :
  fetch:(string -> Sfs_proto.Readonly_proto.obj) -> string -> string list ->
  (string, Crowd.failure) Stdlib.result
(** [walk ~fetch root names]: follow [names] from the directory object
    [root] to a file's bytes.  A missing entry or an object of the
    wrong shape is [Fatal] — the signed tree never had that path, so no
    other mirror will either. *)

val publisher_loc : string
val mirror_loc : int -> string
(** Host names, for soak fault plans targeting the RO tier. *)
