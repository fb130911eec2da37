(** NFS 3 client: [Fs_intf.ops] over Sun RPC, plus the generic
    procedure-marshaling layer that the SFS client reuses over its
    secure channel. *)

open Nfs_types
module Simos = Sfs_os.Simos
module Simnet = Sfs_net.Simnet

exception Rpc_failure of string

type backoff = { attempts : int; base_us : float; max_us : float }
(** A capped exponential backoff: [attempts] counts the first try, and
    the wait before attempt [i + 1] is [min (base_us * 2^i) max_us]. *)

val with_backoff :
  ?obs:Sfs_obs.Obs.registry ->
  clock:Sfs_net.Simclock.t ->
  backoff ->
  (bool -> ('a, string) result) ->
  'a
[@@sfs.declassify "returns the attempt's own reply and raises Rpc_failure with the attempt's own error text; the state the attempt closure captures (a mount's channel) reaches neither, the boundary Rpc_mux.create draws for its exchange closure"]
(** The one retry loop, shared with the SFS client: [attempt false],
    then [attempt true] per retry, until one returns [Ok v].  [Error
    why] bumps [recover.rpc_retry] and charges the backoff to [clock];
    with [b.attempts] spent it bumps [recover.rpc_giveup] and raises
    {!Rpc_failure}[ why].  This client retransmits the {e same} xid
    (8 attempts, 20 ms base, 0.8 s cap) on a timeout or garbled reply,
    so the server's duplicate request cache absorbs re-executions. *)

type raw_call = cred:Simos.cred -> proc:int -> async:bool -> string -> Sfs_util.Slice.t
(** A procedure-level transport: marshaled arguments in, marshaled
    results out.  [async] marks write-behind traffic (unstable WRITEs),
    which implementations may pipeline.  The results are a view, decoded
    in place: the SFS client hands back a view into the opened reply
    frame, and this client wraps its Sun RPC results with the free
    {!Sfs_util.Slice.of_string}. *)

val generic_ops : raw_call -> root:fh -> Fs_intf.ops
(** NFS 3 procedures marshaled over any raw transport — the shared core
    of this client and the SFS client. *)

val mount :
  Simnet.t ->
  from_host:string ->
  addr:string ->
  proto:Sfs_net.Costmodel.transport_proto ->
  cred:Simos.cred ->
  Fs_intf.ops
(** Dial an NFS server on the simulated network and mount its export. *)

val mount_pipelined :
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
    {!Cachefs.create}'s [pipeline].  The MOUNT handshake and serial
    calls ride a window-1 {!Sfs_net.Rpc_mux}, retried by {!with_backoff}.
    Unstable WRITEs ride a second window-1 mux whose latency is
    [Costmodel.async_floor_us], in their own xid space.  Readahead has
    its own windowed mux and xid space. *)
