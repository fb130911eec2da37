(* Timing constants for the simulated substrate.

   Calibrated from the paper's own micro-benchmarks (Fig. 5, two
   550 MHz Pentium IIIs on 100 Mbit switched Ethernet):

   - a null NFS 3 RPC costs 200 us over UDP, 220 us over TCP;
   - SFS's user-level implementation adds 570 us per RPC (790 - 220),
     which we split evenly between client and server daemons;
   - software encryption adds only 20 us to a null RPC (790 vs 770);
   - effective wire bandwidth derives from Fig. 5 throughput:
     9.3 MB/s at 8 KB reads over UDP means ~12 bytes/us raw, and TCP's
     7.6 MB/s means ~9.6 bytes/us (FreeBSD's TCP NFS was suboptimal);
   - the per-byte ARC4 + SHA-1-MAC cost reproduces the measured
     4.1 MB/s encrypted SFS throughput: ~0.128 us/byte charged once per
     message at the sender (the receiver's decrypt overlaps the
     sender's next encrypt), plus 10 us fixed per sealed message —
     which also reproduces the ~20 us encryption share of a null RPC;
   - write-behind (unstable WRITE) RPCs ride a window-1 Rpc_mux whose
     latency is async_floor_us, not the fixed round trip, and pay only
     a fraction of the user-level and crypto costs, as readahead's
     seals do ("multiple outstanding requests can overlap the latency
     of NFS RPCs", section 4.2);
   - windowed (readahead) RPCs through Rpc_mux overlap round trips
     completely, so a saturated window is bandwidth-bound: its ceiling
     is set by reply wire transfer (the full-duplex wire carries the
     small requests alongside) plus a per-reply processing residual
     (pipeline_nfs_op_us / pipeline_sfs_op_us) — demux and copyout that
     serialise at the receiver even under overlap, larger for SFS
     because its user-level daemons store-and-forward every message
     once more than the in-kernel NFS path — or by the measured
     server-side time per call, whichever resource saturates first
     (for encrypting SFS, the server's seal of each 8 KB reply).

   The disk constants model the IBM 18ES 9 GB SCSI disk of the paper's
   testbed; see Diskmodel for how they are charged. *)

type transport_proto = Udp | Tcp

type t = {
  udp_rpc_us : float; (* fixed round-trip cost of a null RPC over UDP *)
  tcp_rpc_us : float; (* same over TCP *)
  udp_bytes_per_us : float; (* effective wire bandwidth over UDP *)
  tcp_bytes_per_us : float;
  userlevel_us_per_side : float; (* kernel/user crossing per RPC per daemon *)
  crypto_us_per_byte : float; (* ARC4 + MAC, charged at the sender *)
  crypto_us_per_msg : float; (* fixed MAC/rekey cost per sealed message *)
  async_floor_us : float; (* write-behind mux latency: the round trip's unhidden part *)
  nfs_tcp_stall_us : float; (* FreeBSD TCP-NFS delayed-ACK stall on multi-segment requests *)
  mss_bytes : int;
  async_userlevel_factor : float; (* share of user-level cost not hidden by the pipeline *)
  async_crypto_factor : float; (* share of crypto cost not hidden by the pipeline *)
  pipeline_nfs_op_us : float; (* per-reply receive-side residual of a windowed NFS exchange *)
  pipeline_sfs_op_us : float; (* same through the user-level SFS relay *)
  keystream_us_per_byte : float; (* of crypto_us_per_byte, the data-independent ARC4 share *)
  sha1_us_per_byte : float; (* bare SHA-1 content hashing (read-only dialect verify/publish) *)
  rabin_verify_us : float; (* one signature verification: a modular squaring + compare *)
  rabin_sign_us : float; (* one signature: square-root extraction via the private factors *)
  copy_bytes_per_us : float; (* main-memory copy bandwidth (buffer handoff in user space) *)
}

let default : t =
  {
    udp_rpc_us = 200.0;
    tcp_rpc_us = 220.0;
    udp_bytes_per_us = 12.0;
    tcp_bytes_per_us = 9.55;
    userlevel_us_per_side = 275.0;
    crypto_us_per_byte = 0.128;
    crypto_us_per_msg = 10.0;
    async_floor_us = 50.0;
    nfs_tcp_stall_us = 1200.0;
    mss_bytes = 1460;
    async_userlevel_factor = 0.35;
    async_crypto_factor = 0.7;
    pipeline_nfs_op_us = 100.0;
    (* 140 when the user-level relay store-and-forwarded each 8 KB reply
       through an extra buffer; the zero-copy read path (one frame from
       wire to cache, XDR decoding views into it) removes that memcpy,
       8192 B at ~400 B/us of copy bandwidth ~= 20 us. *)
    pipeline_sfs_op_us = 120.0;
    (* Of the 0.128 us/B sealed-message cost, the share that is pure
       ARC4 keystream generation — data-independent, so it can run
       during idle wire time before the message exists.  The split
       follows the measured real-CPU ratio (EXPERIMENTS.md: arc4-8k
       ~24.9 us vs hmac-sha1-8k ~34.2 us per 8 KB, a 42/58 split):
       0.421 * 0.128 ~= 0.054.  The MAC share (keyed by per-message
       rekey bytes) and the 10 us fixed cost stay data-dependent. *)
    keystream_us_per_byte = 0.054;
    (* The read-only dialect's costs on the same 550 MHz P-III: bare
       SHA-1 runs ~25 MB/s (the MAC figure above folds in ARC4 and the
       HMAC double-hash; bare digesting of bulk data is cheaper), so
       verifying a fetched object charges 0.04 us/B at the client.
       Rabin verification is one modular squaring (~175 us at 1024
       bits); signing extracts a square root via CRT with the private
       factors, about two orders of magnitude more (the paper's reason
       to sign once per snapshot, never per client). *)
    sha1_us_per_byte = 0.04;
    rabin_verify_us = 175.0;
    rabin_sign_us = 24_000.0;
    copy_bytes_per_us = 400.0;
  }

let rpc_fixed_us (t : t) (proto : transport_proto) : float =
  match proto with Udp -> t.udp_rpc_us | Tcp -> t.tcp_rpc_us

let bytes_per_us (t : t) (proto : transport_proto) : float =
  match proto with Udp -> t.udp_bytes_per_us | Tcp -> t.tcp_bytes_per_us

(* Wire time of one message beyond the fixed per-RPC cost. *)
let transfer_us (t : t) (proto : transport_proto) (bytes : int) : float =
  float_of_int bytes /. bytes_per_us t proto

let crypto_us (t : t) (bytes : int) : float =
  t.crypto_us_per_msg +. (float_of_int bytes *. t.crypto_us_per_byte)

(* The precomputable slice of [crypto_us]: keystream only, no fixed
   per-message cost (MAC/rekey cannot run before the message exists). *)
let keystream_us (t : t) (bytes : int) : float =
  float_of_int bytes *. t.keystream_us_per_byte
