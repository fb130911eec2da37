(** Replica fan-out for the read-only dialect: untrusted mirrors served
    by a publisher that keeps the only copy of the private key.

    A {!mirror} is a dumb content-addressed store of reply frames that
    holds only the publisher's public key [K].  It has a pathname of
    its own, [/sfs/mirrorN:HostID(mirrorN, K)] ({!path}), and answers
    the connect step for it on {!Sfs_proto.Keyneg.sfs_port} through
    {!Sfs_proto.Keyneg.respond}, as sfssd does; it serves only the
    read-only dialect, through {!Readonly.serve}, and refuses every
    other service.  It verifies nothing: clients check [K] against the
    HostID their pathname names and verify every object against the
    hash chain ending at the signed root, so a compromised mirror can
    at worst refuse to serve.  A {!publisher} builds incremental signed
    snapshots (one Rabin signing per publish, SHA-1 only over changed
    content) and pushes deltas to each mirror on a port of its own,
    which refuses reads: missing objects in bounded chunks, then the
    new signed root with an evict list.  The mirror's store models a
    disk: it survives simulated crash/restarts. *)

module Ro = Sfs_proto.Readonly_proto
module Rabin = Sfs_crypto.Rabin
module Memfs = Sfs_nfs.Memfs
module Simnet = Sfs_net.Simnet
module Simclock = Sfs_net.Simclock

(** {2 Mirror} *)

type mirror

val mirror :
  ?obs:Sfs_obs.Obs.registry ->
  clock:Simclock.t ->
  location:string ->
  pubkey:Rabin.pub ->
  unit ->
  mirror
(** An empty mirror for [location], serving the publisher's public key
    [pubkey]; it serves nothing until a publisher pushes a root. *)

val path : mirror -> Pathname.t
(** The mirror's own self-certifying pathname: its Location and the
    HostID of the key it serves. *)

val attach : Simnet.t -> mirror -> Simnet.host
(** Add the mirror's host, named by its Location, listening for clients
    and for the publisher's pushes; like the store, it survives
    crash/restart epochs. *)

val mirror_root : mirror -> Ro.fsinfo option
val mirror_objects : mirror -> int

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
