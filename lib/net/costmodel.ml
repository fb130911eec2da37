(* Timing constants for the simulated substrate.  Each constant's anchor
   (a Figure 5 number, a pinned measured ratio, or "hand-set") is in the
   interface, beside the constant or the function that charges it.  In
   outline:

   - a null NFS 3 RPC costs 200 us over UDP, 220 us over TCP;
   - SFS's user-level implementation adds 550 us per RPC (770 - 220),
     split evenly between client and server daemons;
   - software encryption adds 20 us to a null RPC (790 vs 770): 10 us
     fixed per sealed message, plus 0.128 us/byte charged once at the
     sender (the receiver's decrypt overlaps the sender's next
     encrypt), a rate chosen to reproduce the paper's 4.1 MB/s
     encrypted throughput, which fig5 no longer shows (see the
     interface);
   - effective wire bandwidth derives from Fig. 5 throughput:
     9.3 MB/s at 8 KB reads over UDP means ~12 bytes/us raw, and TCP's
     7.6 MB/s means ~9.6 bytes/us (FreeBSD's TCP NFS was suboptimal);
   - write-behind (unstable WRITE) RPCs ride a window-1 Rpc_mux whose
     latency is async_floor_us, not the fixed round trip; they pay
     both crossings and the full seals like any RPC, and the mux alone
     decides what overlaps ("multiple outstanding requests can overlap
     the latency of NFS RPCs", section 4.2);
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

let udp_rpc_us = 200.0
let tcp_rpc_us = 220.0
let udp_bytes_per_us = 12.0
let tcp_bytes_per_us = 9.55
let userlevel_us_per_side = 275.0
let crypto_us_per_byte = 0.128
let crypto_us_per_msg = 10.0
let async_floor_us = 50.0
let nfs_tcp_stall_us = 1200.0
let mss_bytes = 1460
let pipeline_nfs_op_us = 100.0
let pipeline_sfs_op_us = 120.0
let keystream_us_per_byte = 0.054
let sha1_us_per_byte = 0.04
let rabin_verify_us = 175.0
let rabin_sign_us = 24_000.0
let copy_bytes_per_us = 400.0

let rpc_fixed_us (proto : transport_proto) : float =
  match proto with Udp -> udp_rpc_us | Tcp -> tcp_rpc_us

let transfer_us (proto : transport_proto) (bytes : int) : float =
  float_of_int bytes /. match proto with Udp -> udp_bytes_per_us | Tcp -> tcp_bytes_per_us

let crypto_us (bytes : int) : float = crypto_us_per_msg +. (float_of_int bytes *. crypto_us_per_byte)

(* No fixed per-message cost: MAC/rekey cannot run before the message
   exists. *)
let keystream_us (bytes : int) : float = float_of_int bytes *. keystream_us_per_byte
