(** NFS 3 client: [Fs_intf.ops] over Sun RPC, plus the generic
    procedure-marshaling layer that the SFS client reuses over its
    secure channel. *)

open Nfs_types
module Simos = Sfs_os.Simos
module Simnet = Sfs_net.Simnet

exception Rpc_failure of string

type retry
(** Per-call timeout discipline: a [Simnet.Timeout] (or a garbled
    reply) retransmits the {e same} xid after a capped exponential
    backoff, so the server's duplicate request cache keeps retried
    non-idempotent procedures harmless.  RPC-level rejections are
    permanent and never retried.  Retries bump [recover.rpc_retry];
    exhausting the budget bumps [recover.rpc_giveup] and raises
    {!Rpc_failure}. *)

val retry_policy : ?obs:Sfs_obs.Obs.registry -> charge:(float -> unit) -> unit -> retry
(** Eight attempts, counting the first transmission; the backoff
    before attempt [i + 1] is [min (20 ms * 2^i) 800 ms], billed to the
    simulated clock via [charge]. *)

type raw_call = cred:Simos.cred -> proc:int -> async:bool -> string -> string
(** A procedure-level transport.  [async] marks write-behind traffic
    (unstable WRITEs), which implementations may pipeline. *)

val generic_ops : raw_call -> root:fh -> Fs_intf.ops
(** NFS 3 procedures marshaled over any raw transport — the shared core
    of this client and the SFS client. *)

val mount :
  ?retry:retry ->
  Simnet.t ->
  from_host:string ->
  addr:string ->
  proto:Sfs_net.Costmodel.transport_proto ->
  cred:Simos.cred ->
  Fs_intf.ops
(** Dial an NFS server on the simulated network and mount its export. *)

val mount_pipelined :
  ?retry:retry ->
  ?obs:Sfs_obs.Obs.registry ->
  ?window:int ->
  ?readahead:int ->
  Simnet.t ->
  from_host:string ->
  addr:string ->
  proto:Sfs_net.Costmodel.transport_proto ->
  cred:Simos.cred ->
  Fs_intf.ops * Fs_intf.pipeline option
(** Like {!mount}, but when [window > 1] and [readahead > 0] (defaults
    are the trivial 1/0) also returns the pipelined read path for
    {!Cachefs.create}'s [pipeline].  Only the MOUNT handshake uses
    {!Simnet.call}.  Serial calls ride a window-1 {!Sfs_net.Rpc_mux}.
    Unstable WRITEs ride a second window-1 mux whose latency is
    [Costmodel.async_floor_us], in their own xid space.  Readahead has
    its own windowed mux and xid space. *)
