(** Windowed RPC dispatch: the libasync analogue for the simulated
    substrate (DESIGN.md §11).

    Exchanges run eagerly and in submission order — so server execution
    order, duplicate-request-cache contents and ARC4 stream positions
    are byte-identical to a serial client's — but their cost is
    re-accounted onto virtual resource timelines — the two directions of
    the full-duplex wire and the server CPU/disk — so that up to
    [window] round trips overlap in simulated wall-clock.  With
    [window = 1] the schedule degenerates to the serial one.

    The mux is polymorphic in the reply payload: a clear connection
    ({!of_conn}) instantiates ['a = string], while the read-write data
    path ([Nfs_client.data_path], the one other constructor of muxes)
    carries what its transport decoded from the opened reply: the
    marshaled NFS results as a string, or a readahead READ's decoded
    data. *)

type 'a completion = {
  c_payload : 'a;  (** decoded reply payload *)
  c_server_us : float;
      (** simulated time the server side spent on this exchange, as
          measured by {!Simnet.call_measured} *)
  c_wire_bytes : int;  (** reply length on the wire (sealed, for SFS) *)
  c_crypto_us : float;
      (** of [c_server_us], the reply-seal (down-direction crypto) time —
          split out so the critical-path analyzer attributes each
          direction's crypto separately instead of double-counting the
          full-duplex overlap under pipelining; [0.] on clear channels *)
  c_claim_us : float;
      (** of [c_crypto_us], keystream generation that already ran during
          donated idle wire time ({!Channel.take_recv_claim}): removed
          from the srv timeline's occupancy and the [crypto_down]
          segment, but not from the [_ctr] counter attributions — the
          channel ledgers billed the full seal; [0.] when nothing was
          precomputed *)
}

(** Critical-path capture for one submitted op (DESIGN.md §13):
    [ci_t0_us] is the clock when the client began the op (before its
    own user-level/seal charges), [ci_crypto_up_us] the request seal
    it billed since then (its integer part is what the seal added to
    the [crypto_us_out] counter), and [ci_span] the op's open span —
    closed by {!submit} at the op's ready time. *)
type call_info = {
  ci_op : string;
  ci_t0_us : float;
  ci_crypto_up_us : float;
  ci_span : Sfs_obs.Obs.open_span;
}

type 'a ticket
(** One outstanding call.  Holds either the reply payload or the
    exception the exchange raised; both surface at {!await}. *)

type 'a t

val create :
  ?obs:Sfs_obs.Obs.registry ->
  ?precompute:(budget_us:float -> float) ->
  window:int ->
  clock:Simclock.t ->
  wire_us:(int -> float) ->
  latency_us:float ->
  op_us:float ->
  exchange:(string -> 'a completion) ->
  unit ->
  'a t
[@@sfs.declassify "an opaque transport handle: the exchange closure and any channel state it captures stay inside the mux; submit emits only the payload it is handed, and await returns replies already opened off the wire"]
(** [wire_us] maps a wire length to link occupancy; [latency_us] is the
    fixed per-RPC round-trip cost (paid by every call, overlapped by the
    window); [op_us] is the per-reply client processing residual that
    serialises on the receive path
    ({!Costmodel.pipeline_nfs_op_us} / {!Costmodel.pipeline_sfs_op_us}).
    [exchange] performs one request/reply synchronously under
    {!Simclock.absorb} discipline — it must charge nothing to the clock
    (use {!Simnet.call_measured}).  When [obs] is given, counters
    [mux.submit], [mux.stall] (window-full forced waits) and [mux.fail]
    are recorded.

    [precompute] is the idle-wire donation hook ({!Channel.precompute}):
    at each submit the mux measures how long each wire direction's
    timeline sat free since the previous submit and offers that dead
    time as a budget; the hook returns how much it spent, which is
    accumulated in the [mux.idle_us_used] counter (reconciled against
    [channel.*.keystream_precomputed_us] by the trace tests).
    @raise Invalid_argument if [window < 1]. *)

val submit :
  ?info:call_info ->
  'a t ->
  wire_bytes:int ->
  string ->
  'a ticket
[@@sfs.sink "wire"]
(** Issue a call.  If the window is full, first advances the clock to
    the oldest outstanding reply's ready time (completing it).  The
    exchange itself runs now, in submission order; a raised exception is
    captured in the ticket and re-raised at {!await}.  [wire_bytes] is
    the request's on-the-wire length.  With [?info], the
    mux records in [ci_span]'s registry an {!Sfs_obs.Obs.cp_sample}
    decomposing the op's wall time (submit begin to reply ready) into
    additive segments, and closes [ci_span] at the ready time. *)

val await : 'a t -> 'a ticket -> 'a
(** Advance the clock to the ticket's ready time (if not already past)
    and return the payload, or re-raise the exchange's exception.
    Idempotent on completed tickets. *)

val call : 'a t -> string -> 'a
[@@sfs.sink "wire"]
(** {!submit} then {!await}: one exchange priced by the mux. *)

val of_conn : Simnet.t -> proto:Costmodel.transport_proto -> Simnet.conn -> string t
(** A window-1 mux over a clear connection, returning raw replies and
    pricing one serial round trip on [proto]'s wire
    ({!Costmodel.rpc_fixed_us} plus both messages' wire time and the
    server's measured time): the handshakes' mux (key negotiation,
    authentication, read-only fetches, SRP, replica pushes).  Build one
    per connection.  The read-write data path builds its own muxes
    ({!Sfs_nfs.Nfs_client.data_path}). *)
