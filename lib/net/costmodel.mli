(** Timing constants for the simulated substrate, calibrated from the
    paper's micro-benchmarks (Fig. 5: 550 MHz Pentium IIIs on 100 Mbit
    switched Ethernet).  See the implementation header for the full
    derivation of each constant. *)

type transport_proto = Udp | Tcp

type t = {
  udp_rpc_us : float;  (** fixed round-trip cost of a null RPC over UDP *)
  tcp_rpc_us : float;  (** same over TCP *)
  udp_bytes_per_us : float;  (** effective wire bandwidth over UDP *)
  tcp_bytes_per_us : float;
  userlevel_us_per_side : float;  (** kernel/user crossing per RPC per daemon *)
  crypto_us_per_byte : float;  (** ARC4 + MAC, charged at the sender *)
  crypto_us_per_msg : float;  (** fixed MAC/rekey cost per sealed message *)
  async_floor_us : float;
      (** latency of the write-behind mux: the part of a round trip a
          write-behind caller still waits for *)
  nfs_tcp_stall_us : float;
      (** FreeBSD TCP-NFS delayed-ACK stall on multi-segment requests *)
  mss_bytes : int;
  async_userlevel_factor : float;
      (** share of user-level cost not hidden by the pipeline
          (write-behind and readahead seals) *)
  async_crypto_factor : float;  (** share of crypto cost not hidden by the pipeline *)
  pipeline_nfs_op_us : float;
      (** per-reply residual of a windowed ({!Rpc_mux}) NFS exchange:
          receive-side demux and copyout that serialise at the client
          even when round trips overlap *)
  pipeline_sfs_op_us : float;
      (** same, through SFS's user-level relay; smaller than it once was
          because the zero-copy read path no longer store-and-forwards
          each reply through an extra buffer *)
  keystream_us_per_byte : float;
      (** of [crypto_us_per_byte], the data-independent ARC4-keystream
          share — the part {!Channel.precompute} may bill to idle wire
          time; the MAC share and [crypto_us_per_msg] stay with the
          message *)
  sha1_us_per_byte : float;
      (** bare SHA-1 over bulk data: what a read-only client charges to
          verify a fetched object against its hash, and the publisher
          charges to hash dirty objects into a snapshot *)
  rabin_verify_us : float;
      (** one Rabin-Williams verification (a modular squaring) — paid
          once per fetched signed root *)
  rabin_sign_us : float;
      (** one Rabin-Williams signature (CRT square root with the
          private factors) — the expensive operation the read-only
          dialect performs once per snapshot instead of per client *)
  copy_bytes_per_us : float;
      (** main-memory copy bandwidth; a mirror serving a cached object
          pays one buffer handoff at this rate, and nothing else *)
}

val default : t
(** The paper's testbed. *)

val rpc_fixed_us : t -> transport_proto -> float
val bytes_per_us : t -> transport_proto -> float

val transfer_us : t -> transport_proto -> int -> float
(** Wire time of one message beyond the fixed per-RPC cost. *)

val crypto_us : t -> int -> float
(** Encryption/MAC time for one sealed message of the given size. *)

val keystream_us : t -> int -> float
(** The precomputable (data-independent keystream) slice of
    {!crypto_us} for the given payload size; excludes the fixed
    per-message cost. *)
