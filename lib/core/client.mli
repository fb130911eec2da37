(** sfscd — the SFS client: automounts self-certifying pathnames over
    negotiated secure channels, caches with leases and invalidation
    callbacks, authenticates users through their agents, and shares
    mounts safely between users (paper sections 2.2, 2.3, 3, 3.3).

    Clients have no notion of administrative realm and no server
    configuration: the pathnames users access are the entire policy. *)

module Simnet = Sfs_net.Simnet
module Rabin = Sfs_crypto.Rabin
module Prng = Sfs_crypto.Prng
module Fs_intf = Sfs_nfs.Fs_intf
module Cachefs = Sfs_nfs.Cachefs

type mount_error =
  | Host_unreachable of string
  | Revoked of Revocation.t option
      (** the verified certificate the server sent, when parsable *)
  | Negotiation_failed of string

val mount_error_to_string : mount_error -> string

type mount
type t

val create :
  ?temp_key:Rabin.priv ->
  ?encrypt:bool ->
  ?cache_policy:Cachefs.policy ->
  ?rpc_window:int ->
  ?readahead:int ->
  ?obs:Sfs_obs.Obs.registry ->
  Simnet.t ->
  from_host:string ->
  rng:Prng.t ->
  unit ->
  t
(** [~encrypt:false] negotiates the "SFS w/o encryption" dialect;
    [cache_policy] defaults to lease-based SFS caching.  The short-lived
    key K_C (512 bits) regenerates every hour for forward secrecy.
    Each RPC gets 8 attempts (50 ms base, 1.6 s cap): a timeout or
    channel failure backs off, reconnects and re-seals under the same
    xid, because any loss poisons the ARC4 streams.

    File system calls ride the data path both clients share,
    {!Sfs_nfs.Nfs_client.data_path}: the mount hands it a transport
    that seals each NFS 3 call in the secure channel and opens each
    reply in place.  Serial calls cost exactly one round trip.
    Unstable WRITEs ride the write-behind mux, whose latency is
    [Costmodel.async_floor_us].  Every call pays the same price on
    each side: the client charges its user-level crossing and its
    request seal, sfssd its crossing and its reply seal.  [rpc_window]
    (default 1) is the window of the readahead mux, for sequential-read
    readahead of [readahead] blocks (default 0); any window above 1
    also turns on write-behind gathering in the cache layer — DESIGN.md
    §11.

    A pre-generated [temp_key] skips the (expensive) per-client key
    generation — fleet simulations share one K_C across thousands of
    clients; hourly rotation still applies.  Each mux keeps a private
    server timeline; the fleet engine re-accounts server occupancy on
    the host's run queue itself (DESIGN.md §15).  When [obs] is given,
    automount and authentication spans are recorded, and the mount's
    channel and cache are instrumented too ([channel.client.*],
    [cache.*]).

    Every connection to sfssd comes from {!Sfs_proto.Keyneg.dial}, and
    key negotiation, authentication and read-only fetches ride the one
    window-1 mux it builds, each exchange priced as one serial round
    trip; a reconnection replaces the whole session.  Every reply on
    the secure channel is opened
    into the channel's reused frame buffer with
    {!Sfs_proto.Channel.open_with} and decoded there by
    {!Sfs_proto.Sfsrw.response_of_slice}: a serial or write-behind call
    copies its NFS results out, and a readahead READ decodes its data
    once, into the string the block cache keeps. *)

val mount : t -> Pathname.t -> (mount, mount_error) result
(** Dial the Location, negotiate keys, verify the HostID, fetch the
    root handle.  Idempotent: mounts are cached and shared. *)

val mount_readonly : t -> Pathname.t -> (Fs_intf.ops, mount_error) result
(** Mount with the signed read-only dialect through {!Readonly.dial}:
    no key negotiation, no secure channel.  The pathname may name sfssd
    or a key-free {!Replica} mirror, and the served key must hash to
    its HostID.  The result is the verified snapshot's {!Readonly.ops}
    under a cache; it is not a {!mount} and is not shared.  Each call
    dials its own connection, which stays open as long as the server
    keeps it.  A refused dial, a crash window or a lost message is
    [Host_unreachable], a root that fails verification
    [Negotiation_failed]; every error closes the connection. *)

val find_mount : t -> Pathname.t -> mount option
(* sfslint: allow SL014 — §2.2: the automounter's live mounts, through which the cache and unmount tests reach a mount *)
val mounts : t -> mount list

val authenticate : ?local_uid:int -> t -> mount -> Agent.t -> int
(** Run the Figure 4 protocol for the agent's user, trying each of its
    signers; remembers the resulting authentication number under
    [local_uid] (default: the agent's own uid; ssu passes the
    super-user's).  Anonymous when the server {e denies} every signer,
    as the paper's client does when the agent declines.  A transport
    fault, or a session a failed reconnect left dead, is never
    downgraded to anonymous: authentication retries as a data call
    does, reconnecting before each later attempt, and raises
    [Nfs_client.Rpc_failure] once the budget is spent.  The agent is
    remembered, so every reconnection re-authenticates it. *)

(** {2 Mount accessors} *)

val ops : mount -> Fs_intf.ops
(** The cache-wrapped file system interface users consume. *)

val cache : mount -> Cachefs.t

val pending_invalidations : mount -> int
(** Invalidation callbacks received but not yet drained into the cache
    (drains happen lazily on the next cache consult).  Lets the fleet
    reconcile server-sent against client-received counts exactly. *)

val unmount : t -> mount -> unit
(** Flush the mount's write-behind data, then close its connection (also
    when the flush raises) and forget it. *)

val inject_raw : mount -> string -> (string, string) result
(** Adversary-side helper (attack demo, tests): deliver raw bytes on
    the mount's connection as a replaying network attacker would. *)
