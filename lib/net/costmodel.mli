(** Timing constants for the simulated substrate: the paper's one
    testbed, two 550 MHz Pentium IIIs on 100 Mbit switched Ethernet.
    Each constant names the anchor its value comes from — a Figure 5
    number, a pinned measured ratio, or a hand-set value that no figure
    derives.  There is no per-run override. *)

type transport_proto = Udp | Tcp

val udp_rpc_us : float
(** 200 µs: the Fig. 5 null NFS 3 RPC latency over UDP. *)

val tcp_rpc_us : float
(** 220 µs: the Fig. 5 null NFS 3 RPC latency over TCP. *)

val udp_bytes_per_us : float
(** 12 B/µs: raw wire bandwidth behind Fig. 5's 9.3 MB/s 8 KB NFS 3
    reads over UDP. *)

val tcp_bytes_per_us : float
(** 9.55 B/µs: the same behind Fig. 5's 7.6 MB/s over TCP (FreeBSD's
    TCP NFS was suboptimal). *)

val userlevel_us_per_side : float
(** 275 µs: the kernel/user crossing per RPC per daemon.  Fig. 5's SFS
    without encryption reads 770 µs against TCP's 220; the 550 µs
    difference splits evenly between client and server daemons. *)

val crypto_us_per_byte : float
(** 0.128 µs/B: ARC4 + SHA-1 MAC, charged once per message at the
    sender (the receiver's decrypt overlaps the sender's next encrypt).
    Chosen to reproduce Fig. 5's 4.1 MB/s encrypted SFS throughput.
    No client configuration in this repo reads 4.1 MB/s today: fig5's
    SFS row is 7.868 MB/s, because of window-16 readahead and idle-time
    keystream (DESIGN §11, §14).  Which client the calibration targeted
    is open (ROADMAP, "A paper-fidelity table"). *)

val crypto_us_per_msg : float
(** 10 µs: fixed MAC/rekey cost per sealed message.  Fig. 5's SFS null
    RPC reads 790 µs against 770 without encryption: 20 µs for the two
    sealed messages of one round trip. *)

val async_floor_us : float
(** 50 µs: latency of the write-behind mux, the part of a round trip a
    write-behind caller still waits for.  Hand-set; no figure derives
    it. *)

val nfs_tcp_stall_us : float
(** 1.2 ms: FreeBSD 3.3's TCP-NFS delayed-ACK stall on multi-segment
    requests, charged at the kernel NFS TCP client only.  Hand-set. *)

val mss_bytes : int
(** 1460 B: the TCP segment size on 1500-byte Ethernet frames; a
    request longer than this takes the TCP-NFS stall. *)

val async_userlevel_factor : float
(** 0.35: share of the user-level cost not hidden by the pipeline, for
    write-behind and readahead seals.  Hand-set. *)

val async_crypto_factor : float
(** 0.7: share of the crypto cost not hidden by the pipeline.
    Hand-set. *)

val pipeline_nfs_op_us : float
(** 100 µs: per-reply residual of a windowed ({!Rpc_mux}) NFS exchange:
    receive-side demux and copyout that serialise at the client even
    when round trips overlap.  Hand-set. *)

val pipeline_sfs_op_us : float
(** 120 µs: the same through SFS's user-level relay.  It was 140 when
    the relay store-and-forwarded each 8 KB reply through an extra
    buffer; the zero-copy read path removes that copy, 8192 B at
    {!copy_bytes_per_us} ≈ 20 µs. *)

val keystream_us_per_byte : float
(** 0.054 µs/B: of {!crypto_us_per_byte}, the data-independent ARC4
    keystream share — the part {!Channel.precompute} may bill to idle
    wire time; the MAC share and {!crypto_us_per_msg} stay with the
    message.  The value is pinned at 42% of 0.128, the real-CPU split
    of one past measurement (arc4-8k 24.9 µs vs hmac-sha1-8k 34.2 µs).
    It does not follow the host: the committed crypto row reads 26.5 µs
    vs 45.5 µs, a 37/63 split. *)

val sha1_us_per_byte : float
(** 0.04 µs/B: bare SHA-1 over bulk data, ~25 MB/s on the testbed's
    CPU.  A read-only client charges it to verify a fetched object
    against its hash, and the publisher to hash dirty objects into a
    snapshot.  Estimated, not measured by the paper. *)

val rabin_verify_us : float
(** 175 µs: one Rabin-Williams verification at 1024 bits (a modular
    squaring), paid once per fetched signed root.  Estimated. *)

val rabin_sign_us : float
(** 24 ms: one Rabin-Williams signature (CRT square root with the
    private factors), about two orders of magnitude above a
    verification — the paper's reason to sign once per snapshot, never
    per client.  Estimated. *)

val copy_bytes_per_us : float
(** 400 B/µs: main-memory copy bandwidth; a mirror serving a cached
    object pays one buffer handoff at this rate, and nothing else.
    Estimated. *)

val rpc_fixed_us : transport_proto -> float

val transfer_us : transport_proto -> int -> float
(** Wire time of one message beyond the fixed per-RPC cost. *)

val crypto_us : int -> float
(** Encryption/MAC time for one sealed message of the given size. *)

val keystream_us : int -> float
(** The precomputable (data-independent keystream) slice of
    {!crypto_us} for the given payload size; excludes the fixed
    per-message cost. *)
