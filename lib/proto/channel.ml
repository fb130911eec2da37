(* The SFS secure channel (paper section 3.1.3).

   One ARC4 stream per direction, keyed by the negotiated session keys,
   runs for the whole session.  For each message the sender first pulls
   32 bytes from its stream to re-key the SHA-1-based MAC (those bytes
   are never used for encryption), computes the MAC over the length and
   plaintext, and then encrypts length, message and MAC with the
   continuing stream.  Because both ends consume the stream in
   lock-step, any dropped, replayed or reordered ciphertext desynchronizes
   the stream and fails the MAC — giving secrecy, integrity, freshness
   and replay protection in one mechanism.

   Each [seal] charges the cost model's crypto time at the sender (the
   modeled stand-in for the paper's measured software-encryption cost;
   the receiver's work overlaps the sender's next message), unless the
   channel was created with [encrypt:false] (the "SFS w/o encryption"
   ablation).

   Fast path: each direction owns one grow-on-demand frame buffer and
   one HMAC schedule.  Per message, the 32 MAC-key bytes are drawn into
   a fixed key buffer and the schedule is re-keyed from them in place;
   [seal] writes length word, plaintext and MAC into the frame buffer,
   then makes a single ARC4 pass over the whole frame; [open_with]
   decrypts the wire straight into the same buffer, verifies the tag
   where it lies and only then lends the plaintext to its caller.  The
   only per-message allocation is the sealed frame, or whatever the
   caller makes of the lent plaintext. *)

module Arc4 = Sfs_crypto.Arc4
module Mac = Sfs_crypto.Mac
module Simclock = Sfs_net.Simclock
module Costmodel = Sfs_net.Costmodel
module Obs = Sfs_obs.Obs

type open_error = [ `Mac_mismatch | `Replay ]
(* [`Mac_mismatch]: a well-framed message whose tag failed — tampering
   (or a desync that happened to preserve the length word).
   [`Replay]: the frame shape itself is wrong after decryption — the
   signature of dropped, replayed or reordered ciphertext shearing the
   stream positions.  Either way the channel is dead; the distinction
   feeds the recovery layer's counters. *)

(* [mac] is the direction's HMAC state, re-keyed in place from
   [mac_key] (the 32 stream bytes drawn ahead of each frame). *)
type half = {
  stream : Arc4.t;
  mutable buf : Bytes.t;
  mac : Mac.schedule;
  mac_key : Bytes.t;
}

(* Counter names are precomputed in [create] so the per-message cost of
   instrumentation is a hash lookup, not string concatenation. *)
type keys = {
  k_sent : string;
  k_received : string;
  k_bytes_out : string;
  k_bytes_in : string;
  k_mac_failures : string;
  k_replays : string;
  k_crypto_us_out : string;
  k_crypto_us_in : string;
}

type t = {
  send_half : half;
  recv_half : half;
  encrypt : bool;
  clock : Simclock.t option;
  obs : Obs.registry option;
  keys : keys;
}

let mac_key_bytes = 32

(* The schedule starts under an empty key and is re-keyed before every
   message; it is built by the secret-source constructor all the same,
   so the analysis sees each half as holding MAC key state. *)
let fresh_half (key : string) : half =
  {
    stream = Arc4.create key;
    buf = Bytes.create 256;
    mac = Mac.schedule ~key:"";
    mac_key = Bytes.create mac_key_bytes;
  }

let create ?(encrypt = true) ?clock ?obs ?(label = "chan")
    ~(send_key : string) ~(recv_key : string) () : t =
  let k s = "channel." ^ label ^ "." ^ s in (* sfslint: allow SL009 — one-time counter names at create *)
  {
    send_half = fresh_half send_key;
    recv_half = fresh_half recv_key;
    encrypt;
    clock;
    obs;
    keys =
      {
        k_sent = k "sent";
        k_received = k "received";
        k_bytes_out = k "bytes_out";
        k_bytes_in = k "bytes_in";
        k_mac_failures = k "mac_failures";
        k_replays = k "replays";
        k_crypto_us_out = k "crypto_us_out";
        k_crypto_us_in = k "crypto_us_in";
      };
  }

(* The per-direction frame buffer, reused for every message on that
   half.  It at least doubles when it grows, and a message more than
   twice its size gets a buffer of exactly its length. *)
let frame_buf (h : half) (n : int) : Bytes.t =
  if Bytes.length h.buf < n then h.buf <- Bytes.create (max n (2 * Bytes.length h.buf));
  h.buf

(* Draw the next 32 stream bytes (keystream xor zeros) and re-key the
   half's MAC from them: the per-message key of section 3.1.3, never
   used for encryption. *)
let rekey_mac (h : half) : unit =
  Bytes.fill h.mac_key 0 mac_key_bytes '\000';
  Arc4.encrypt_into h.stream h.mac_key ~off:0 ~len:mac_key_bytes;
  Mac.rekey h.mac h.mac_key ~off:0 ~len:mac_key_bytes

(* Even with encryption disabled the channel keeps its framing and MAC
   discipline (the ablation removes only the ARC4 pass), so "SFS w/o
   encryption" still detects tampering, as the real system's
   no-encryption dialect would still MAC traffic.  The plaintext is the
   first [len] bytes of [src]: an encoder's buffer seals with no copy
   of its own. *)
let seal_bytes (t : t) (src : Bytes.t) ~len:(n : int) : string =
  Obs.span t.obs ~cat:"channel" "seal" (fun () ->
      Obs.incr t.obs t.keys.k_sent;
      Obs.add t.obs t.keys.k_bytes_out n;
      if t.encrypt then begin
        let us = Costmodel.crypto_us n in
        Obs.add t.obs t.keys.k_crypto_us_out (int_of_float us);
        match t.clock with Some clock -> Simclock.advance clock us | None -> ()
      end;
      rekey_mac t.send_half;
      (* Frame assembled in place: be32 length ∥ plaintext ∥ MAC, the
         tag written directly after the bytes it covers, then one
         cipher pass over the whole frame. *)
      let frame_len = 4 + n + Mac.mac_size in
      let buf = frame_buf t.send_half frame_len in
      Sfs_util.Bytesutil.put_be32 buf ~off:0 n;
      Bytes.blit src 0 buf 4 n;
      Mac.mac_into t.send_half.mac buf ~off:0 ~len:(4 + n) ~dst:buf ~dst_off:(4 + n);
      if t.encrypt then Arc4.encrypt_into t.send_half.stream buf ~off:0 ~len:frame_len
      else
        (* Keep the stream positions in lock-step with the encrypted mode. *)
        Arc4.skip t.send_half.stream frame_len;
      Bytes.sub_string buf 0 frame_len)

(* [seal_bytes] only reads its source, so a string is sealed in place. *)
let seal (t : t) (plaintext : string) : string =
  seal_bytes t (Bytes.unsafe_of_string plaintext) ~len:(String.length plaintext)

let reject (t : t) (e : open_error) : ('a, open_error) result =
  Obs.incr t.obs t.keys.k_mac_failures;
  (match e with `Replay -> Obs.incr t.obs t.keys.k_replays | `Mac_mismatch -> ());
  Error e

(* Open one message into the receive half's reused frame buffer and,
   once its tag has verified, lend the plaintext to [f] as a view into
   that buffer.  The next open on this half overwrites the buffer, so
   the view is valid only while [f] runs: [f] decodes or copies out
   what it keeps.  With encryption off the wire is copied in unchanged
   and the MAC discipline is the same. *)
let open_with (t : t) (wire : string) (f : Sfs_util.Slice.t -> 'a) : ('a, open_error) result =
  Obs.span t.obs ~cat:"channel" "open" (fun () ->
      let wire_len = String.length wire in
      Obs.incr t.obs t.keys.k_received;
      if wire_len < 4 + Mac.mac_size then reject t `Replay
      else begin
        (* Bill the observability counter on plaintext length, matching
           [seal]'s crypto_us_out (the framing overhead is not payload). *)
        if t.encrypt then
          Obs.add t.obs t.keys.k_crypto_us_in
            (int_of_float (Costmodel.crypto_us (wire_len - 4 - Mac.mac_size)));
        rekey_mac t.recv_half;
        let buf = frame_buf t.recv_half wire_len in
        if t.encrypt then
          Arc4.xor_into t.recv_half.stream ~src:wire ~src_off:0 ~dst:buf ~dst_off:0 ~len:wire_len
        else begin
          Bytes.blit_string wire 0 buf 0 wire_len;
          Arc4.skip t.recv_half.stream wire_len
        end;
        let len = Sfs_util.Bytesutil.get_be32 buf ~off:0 in
        if len < 0 || len <> wire_len - 4 - Mac.mac_size then
          (* A garbled length word is the stream-desync signature:
             dropped/replayed/reordered ciphertext shifted the cipher
             positions and nothing decrypts sensibly any more. *)
          reject t `Replay
        else if not (Mac.verify_into t.recv_half.mac buf ~off:0 ~len:(4 + len) ~tag_off:(4 + len))
        then reject t `Mac_mismatch
        else begin
          Obs.add t.obs t.keys.k_bytes_in len;
          Ok (f (Sfs_util.Slice.make (Bytes.unsafe_to_string buf) ~off:4 ~len))
        end
      end)

let open_ (t : t) (wire : string) : (string, open_error) result =
  open_with t wire Sfs_util.Slice.to_string

(* The crypto time [seal] charges for [bytes], for callers that
   attribute it without sealing. *)
let crypto_cost_us (t : t) (bytes : int) : float =
  if t.encrypt then Costmodel.crypto_us bytes else 0.0
