(** Timing constants for the simulated substrate: the paper's one
    testbed, two 550 MHz Pentium IIIs on 100 Mbit switched Ethernet.
    Each constant names the anchor its value comes from — a Figure 5
    number, a pinned measured ratio, or a hand-set value that no figure
    derives.  There is no per-run override. *)

type transport_proto = Udp | Tcp

val userlevel_us_per_side : float
(** 275 µs: the kernel/user crossing per RPC per daemon.  Fig. 5's SFS
    without encryption reads 770 µs against TCP's 220; the 550 µs
    difference splits evenly between client and server daemons. *)

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
(** 0.054 µs/B: of {!crypto_us}'s 0.128 µs/B, the data-independent
    ARC4 keystream share — the part {!Channel.precompute} may bill to
    idle wire time; the MAC share and the fixed per-message cost stay
    with the message.  The value is pinned at 42% of 0.128, the real-CPU split
    of one past measurement (arc4-8k 24.9 µs vs hmac-sha1-8k 34.2 µs).
    It does not follow the host: the crypto figure prints it beside
    the share its [arc4-8k] and [hmac-sha1-8k] rows measure. *)

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
(** The Fig. 5 null NFS 3 RPC latency: 200 µs over UDP, 220 µs over TCP. *)

val transfer_us : transport_proto -> int -> float
(** Wire time of one message beyond the fixed per-RPC cost, at the raw
    bandwidth behind Fig. 5's 8 KB NFS 3 reads: 12 B/µs over UDP
    (9.3 MB/s), 9.55 B/µs over TCP (7.6 MB/s; FreeBSD's TCP NFS was
    suboptimal). *)

val crypto_us : int -> float
(** Encryption/MAC time for one sealed message of the given size: a
    10 µs MAC/rekey cost plus 0.128 µs/B of ARC4 + SHA-1 MAC, charged
    once at the sender (the receiver's decrypt overlaps the sender's
    next encrypt).  Fig. 5's SFS null RPC reads 790 µs against 770
    without encryption: 20 µs for the two sealed messages of one round
    trip.  The per-byte rate reproduces Fig. 5's 4.1 MB/s encrypted SFS
    throughput, which no client configuration here reads today: fig5's
    SFS row is 7.868 MB/s, because of window-16 readahead and idle-time
    keystream (DESIGN §11, §14).  Which client the calibration targeted
    is open (ROADMAP, "A paper-fidelity table"). *)

val keystream_us : int -> float
(** The precomputable (data-independent keystream) slice of
    {!crypto_us} for the given payload size; excludes the fixed
    per-message cost. *)
