(** The read-write data path of both clients: NFS 3 procedures over a
    {!transport}, as {!Fs_intf.ops} plus an optional readahead
    pipeline.  The NFS 3 client frames calls as Sun RPC ({!mount}); the
    SFS client carries the same calls inside its secure channel
    (paper section 3.3) and passes its own transport to {!data_path}. *)

module Simos = Sfs_os.Simos
module Simnet = Sfs_net.Simnet

exception Rpc_failure of string
(** A call failed for good: an RPC-level rejection, an undecodable
    result, or the retry budget spent. *)

exception Poisoned of string
(** Raised by a transport's [open_reply] for a reply that proves the
    transport itself broken (a MAC failure, a desynchronised stream, an
    undecodable frame).  The exchange then charges nothing, and a
    serial call retries after [before_retry]. *)

type backoff = { attempts : int; base_us : float; max_us : float }
(** A capped exponential backoff: [attempts] counts the first try, and
    the wait before attempt [i + 1] is [min (base_us * 2^i) max_us].  A
    retry bumps [recover.rpc_retry]; a spent budget bumps
    [recover.rpc_giveup] and raises {!Rpc_failure}. *)

val with_backoff :
  ?obs:Sfs_obs.Obs.registry -> clock:Sfs_net.Simclock.t -> backoff -> (bool -> ('a, string) result) -> 'a
(** The one retry loop (serial and write-behind calls, SFS user
    authentication): [attempt again] until [Ok]; [again] is [false] on
    the first attempt, and [Error why] backs off.  @raise Rpc_failure
    once the budget is spent. *)

type call = Root | Proc of int
(** The root-handle fetch (MOUNT's MNT on NFS 3, the dialect's GETROOT
    on SFS), or an NFS 3 procedure. *)

type 'a opened = {
  results : ('a, [ `Retry of string | `Fail of string ]) result;
      (** what the decoder made of the NFS results; [`Retry] when the
          reply was damaged on the wire, [`Fail] for a rejection *)
  crypto_us : float;  (** of the measured server time, the reply seal; [0.] when clear *)
}

type transport = {
  conn : unit -> Simnet.conn;
      (** the connection, read afresh per exchange so a reconnection
          can swap it *)
  proto : Sfs_net.Costmodel.transport_proto;  (** prices the wire and the round trip *)
  verbatim : bool;
      (** [true]: a call is framed once, from the ambient trace context,
          and every attempt resends those bytes (NFS 3: the duplicate
          request cache compares whole messages); it opens no op span
          and records no critical-path sample.  [false]: every attempt
          frames afresh under its own op span (SFS: a reconnection
          re-keys the channel). *)
  frame :
    xid:int ->
    ctx:Sfs_obs.Obs.ctx option ->
    cred:Simos.cred ->
    call ->
    (Sfs_xdr.Xdr.enc -> unit) ->
    string * float;
      (** the wire bytes of one call, its arguments written by the
          function, and the request seal it charged to the caller's
          clock, the same on every mux ({!Sfs_net.Rpc_mux.call_info}) *)
  open_reply : 'a. readahead:bool -> (Sfs_util.Slice.t -> 'a) -> request:string -> string -> 'a opened;
      (** [open_reply ~readahead decode], once per mux, opens each
          reply to [request] and applies [decode] to its NFS results.
          The view may be lent (SFS: the channel's reused frame
          buffer), so [decode] copies or decodes what it keeps.  May
          raise {!Poisoned} or {!Rpc_failure}, and then the exchange
          charges nothing *)
  op_us : float;  (** the readahead mux's per-reply residual *)
  before_retry : unit -> unit;  (** run before every attempt after the first *)
  backoff : backoff;
}

val data_path :
  ?obs:Sfs_obs.Obs.registry ->
  window:int ->
  readahead:int ->
  cred:Simos.cred ->
  Simnet.t ->
  transport ->
  Fs_intf.ops * Fs_intf.pipeline option
[@@sfs.declassify "an opaque transport handle, the boundary Rpc_mux.create draws: the frame and open closures and the channel state they capture stay inside the muxes; the ops return only decoded results and raise Rpc_failure with transport-chosen error text"]
(** Fetch the root handle as [cred] and build the data path over a
    transport.  Each logical call takes its xid from the connection's
    host ({!Simnet.next_xid}); serial and write-behind calls hold it
    across retries, and each readahead READ draws its own.  The serial
    calls, write-behind (unstable WRITEs) and readahead each ride their
    own {!Sfs_net.Rpc_mux}: window 1 priced at one round trip, window 1
    priced at [Costmodel.async_floor_us], and [window] wide with the
    transport's [op_us].  Serial and write-behind
    replies copy their marshaled results out of the transport's lent
    view; a readahead reply decodes its READ result in the view, so its
    data is copied once.  The pipeline is [Some] only when
    [window > 1] and [readahead > 0].  Serial and write-behind
    calls retry through [backoff] on a timeout, a [`Retry] reply or
    {!Poisoned}.  Only the readahead mux keeps [obs]'s mux.* counters.
    @raise Rpc_failure when the root fetch fails. *)

val mount :
  ?obs:Sfs_obs.Obs.registry ->
  ?window:int ->
  ?readahead:int ->
  Simnet.t ->
  from_host:string ->
  addr:string ->
  proto:Sfs_net.Costmodel.transport_proto ->
  cred:Simos.cred ->
  Fs_intf.ops * Fs_intf.pipeline option
(** Dial an NFS server on the simulated network and mount its export as
    [cred] over Sun RPC: {!data_path} with [window] (default 1) and
    [readahead] (default 0).  A call is retransmitted byte for byte
    under its xid (8 attempts, 20 ms base, 0.8 s cap).  Any failure
    closes the connection and re-raises. *)
