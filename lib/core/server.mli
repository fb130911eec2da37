(** sfssd — the SFS server: answers connection requests with its public
    key (or a revocation certificate), negotiates session keys, and
    serves the requested dialect — the read-write protocol inside the
    secure channel, the authserver's SRP service, or the signed
    read-only dialect (paper sections 3, 3.2, 3.3). *)

module Simnet = Sfs_net.Simnet
module Rabin = Sfs_crypto.Rabin
module Prng = Sfs_crypto.Prng
module Fs_intf = Sfs_nfs.Fs_intf

val sfs_port : int
(** 4, as deployed SFS used. *)

type t

val create :
  ?allow_anonymous:bool ->
  ?auth_backend:Authserv.backend ->
  ?obs:Sfs_obs.Obs.registry ->
  Simnet.t ->
  host:Simnet.host ->
  location:string ->
  key:Rabin.priv ->
  rng:Prng.t ->
  backend:Fs_intf.ops ->
  authserv:Authserv.t ->
  unit ->
  t
(** Registers the listener on {!sfs_port}.  [backend] is the NFS
    backend (in deployment, an NFS server on the same machine reached
    over loopback).  Attributes carry {!Sfs_proto.Lease.lease_s}
    leases.  [allow_anonymous] (default true) controls whether
    unauthenticated requests reach the file system at all (section
    2.5).  When [obs] is given the leases, per-connection channels
    ([channel.server.*]) and NFS dispatcher are instrumented, plus
    [server.connections] / [server.drc_insert] / [server.drc_evict]
    counters.  The duplicate-request cache holds the 512 most recent
    replies, evicted FIFO, in every deployment, fleets included.
    [auth_backend] routes signed authentication requests elsewhere
    than the local [authserv] (e.g. an {!Authshard} ring); the local
    instance still serves the SRP service. *)

val crash_recover : t -> unit
(** Simulated crash/restart: volatile state (leases, queued
    invalidation callbacks) is forgotten, as a real server reboot
    would forget it.  Wired as an [on_restart] hook of the fault
    injector; bumps [recover.server_restart]. *)

val self_path : t -> Pathname.t
(** The server's self-certifying pathname — everything a client needs. *)

val serve_readonly : t -> Readonly.snapshot -> unit
(** Also serve this signed snapshot to Fs_readonly connections. *)

val revoke : t -> Revocation.t
(** Issue a revocation certificate for this server's own pathname and
    serve it to all subsequent connections (section 2.6). *)

val forwarding_pointer : t -> new_path:Pathname.t -> Revocation.t
(** A signed forwarding pointer for a benign pathname change. *)

(** {2 Statistics} *)

val drc_entries : t -> int
(** Live duplicate-request-cache entries (reconciles against
    [server.drc_insert] - [server.drc_evict] in the fleet tests). *)

val leases : t -> Sfs_proto.Lease.t
(** The server's lease registry (fan-in visibility for tests). *)
