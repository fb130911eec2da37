(** Replica fan-out for the read-only dialect: untrusted mirrors served
    by a publisher that keeps the only copy of the private key.

    A {!mirror} is a dumb content-addressed byte store — it verifies
    nothing and holds no key material; clients verify every object
    against the hash chain ending at the signed root, so a compromised
    mirror can at worst refuse to serve.  A {!publisher} builds
    incremental signed snapshots (one Rabin signing per publish, SHA-1
    only over changed content) and pushes deltas to each mirror:
    missing objects in bounded chunks, then the new signed root with an
    evict list.  The mirror's store models a disk — it survives
    simulated crash/restarts, so recovery resumes from the last synced
    state. *)

module Ro = Sfs_proto.Readonly_proto
module Rabin = Sfs_crypto.Rabin
module Memfs = Sfs_nfs.Memfs
module Simnet = Sfs_net.Simnet
module Simclock = Sfs_net.Simclock

val ro_port : int
(** Port mirrors (and their clients) use for the read-only dialect. *)

(** {2 Mirror} *)

type mirror

val mirror :
  ?obs:Sfs_obs.Obs.registry ->
  clock:Simclock.t ->
  unit ->
  mirror
(** An empty mirror; it serves nothing until a publisher pushes a root. *)

val attach : Simnet.t -> mirror -> Simnet.host -> unit
(** Listen on {!ro_port} of [host].  Service registration survives
    crash/restart epochs, like the store itself. *)

val mirror_root : mirror -> Ro.fsinfo option
val mirror_objects : mirror -> int

val mirror_served : mirror -> int * int
(** [(objects, bytes)] served to clients so far. *)

(** {2 Publisher} *)

type publisher = private {
  p_key : Rabin.priv; [@sfs.secret]
      (** the only resident copy of the private key; fan-out ships
          store bytes, fsinfo, and signature — never this *)
  p_fs : Memfs.t;
  p_net : Simnet.t;
  p_host : string;
  p_clock : Simclock.t;
  p_obs : Sfs_obs.Obs.registry option;
  mutable p_snapshot : Readonly.snapshot option;
  mutable p_serial : int;
}

type target
(** A mirror as seen by the publisher: its address, a (re)dialable
    connection, and the set of hashes it has acknowledged. *)

val publisher :
  ?obs:Sfs_obs.Obs.registry ->
  net:Simnet.t ->
  host:string ->
  key:Rabin.priv ->
  clock:Simclock.t ->
  Memfs.t ->
  publisher

val pubkey : publisher -> Rabin.pub
val current : publisher -> Readonly.snapshot option

val target : addr:string -> target

val disconnect : target -> unit
(** Drop the push connection (the next fan-out redials). *)

val publish : publisher -> Readonly.snapshot
(** Build the next snapshot (incrementally off the previous one), bump
    the serial, and sign once.  Bills SHA-1 for changed bytes plus one
    Rabin signing to the publisher's clock. *)

val fan_out : publisher -> target list -> int
(** Push the current snapshot's delta to every target; returns how many
    targets failed (down/partitioned — their connections are dropped so
    the next fan-out redials, resuming from what each mirror already
    acknowledged).
    @raise Invalid_argument if nothing has been published. *)
