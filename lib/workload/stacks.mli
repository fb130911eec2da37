(** Benchmark stacks: the systems compared in the paper's evaluation
    (section 4.1) plus the ablations, assembled over the simulated
    network and exposed behind one uniform interface. *)

module Simclock = Sfs_net.Simclock
module Simnet = Sfs_net.Simnet
module Costmodel = Sfs_net.Costmodel
module Simos = Sfs_os.Simos
module Memfs = Sfs_nfs.Memfs
module Diskmodel = Sfs_nfs.Diskmodel
module Cachefs = Sfs_nfs.Cachefs
module Core = Sfs_core

type stack = Local | Nfs_udp | Nfs_tcp | Sfs | Sfs_noenc | Sfs_nocache

val stack_name : stack -> string

val all_paper_stacks : stack list
(** [Local; Nfs_udp; Nfs_tcp; Sfs] — the four columns of Figures 6-9. *)

type world = {
  stack : stack;
  clock : Simclock.t;
  net : Simnet.t;
  server_host : Simnet.host;
      (** the serving machine: per-host run queue, served-time
          accounting and connection admission live here *)
  server_fs : Memfs.t; (** backing store, for direct seeding *)
  server_disk : Diskmodel.t;
  vfs : Core.Vfs.t;
  cred : Simos.cred;
  workdir : string; (** where workloads operate on this stack *)
  sfs_server : Core.Server.t option;
  sfs_client : Core.Client.t option;
  client_cache : Cachefs.t option;
  user : Simos.user;
  agent : Core.Agent.t option;
  obs : Sfs_obs.Obs.registry;
      (** the world's observability registry, keyed to [clock]; every
          layer below records its spans and counters here *)
}

val server_location : string
val client_host : string

val make :
  ?fault:Sfs_fault.Fault.spec ->
  ?server_disk_params:Diskmodel.params ->
  ?rpc_window:int ->
  ?readahead:int ->
  stack ->
  world
(** Build a ready world on the simulated testbed ({!Costmodel}): server with a
    world-writable /bench, client machine, and (for SFS stacks) 512-bit
    keys, authserv, agent and a primed authenticated mount.  [fault] arms a fault plan on the network
    {e after} construction and priming (construction always runs
    clean).  [rpc_window] (default 16) and [readahead] (default
    [rpc_window]) configure the pipelined RPC dispatcher on the remote
    stacks — DESIGN.md §11; [~rpc_window:1 ~readahead:0] rebuilds the
    fully serial client the equivalence tests compare against. *)

val arm_faults : world -> Sfs_fault.Fault.spec -> unit
(** Compile the plan against this world's clock and obs registry and
    install it.  For SFS stacks, the server's volatile state dies with
    each crash window.  Replaces any previously armed plan. *)

val flush_caches : world -> unit
(** Client caches dropped, server disk flushed: benchmark hygiene. *)

val timed : world -> (unit -> unit) -> float
(** Simulated seconds consumed by the thunk. *)
