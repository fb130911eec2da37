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
   ablation) or the caller suppresses billing for pipelined traffic.

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

(* [pre] holds keystream bytes pulled off [stream] ahead of need by
   {!precompute} (billed to idle wire time by the mux); [pre_pos ..
   pre_len) is the unconsumed window.  Sealing/opening consumes the
   buffered bytes before touching the live stream, so the cipher bytes
   are identical to the eager path — the stream is one deterministic
   byte sequence and only *when* it is generated changes.  [mac] is the
   direction's HMAC state, re-keyed in place from [mac_key] (the 32
   stream bytes drawn ahead of each frame). *)
type half = {
  stream : Arc4.t;
  mutable buf : Bytes.t;
  mutable pre : Bytes.t;
  mutable pre_len : int;
  mutable pre_pos : int;
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
  k_keystream_pre : string;
  k_keystream_used : string;
}

type t = {
  send_half : half;
  recv_half : half;
  encrypt : bool;
  clock : Simclock.t option;
  obs : Obs.registry option;
  keys : keys;
  mutable recv_claim_us : float;
      (* the keystream share of the last successfully opened message
         that was served from the recv half's precomputed buffer —
         read-and-cleared by [take_recv_claim], overwritten (forfeited)
         by the next [open_] if nobody claims it *)
}

let mac_key_bytes = 32

(* Upper bound on buffered-ahead keystream per half: bounds both memory
   and how much idle time a long quiet stretch can bank. *)
let pre_cap = 1 lsl 18

(* The schedule starts under an empty key and is re-keyed before every
   message; it is built by the secret-source constructor all the same,
   so the analysis sees each half as holding MAC key state. *)
let fresh_half (key : string) : half =
  {
    stream = Arc4.create key;
    buf = Bytes.create 256;
    pre = Bytes.create 0;
    pre_len = 0;
    pre_pos = 0;
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
        k_keystream_pre = k "keystream_precomputed_us";
        k_keystream_used = k "keystream_claimed_us";
      };
    recv_claim_us = 0.0;
  }

let charge (t : t) (bytes : int) : unit =
  match t.clock with
  | Some clock when t.encrypt -> Simclock.advance clock (Costmodel.crypto_us bytes)
  | _ -> ()

(* The per-direction frame buffer, reused for every message on that
   half.  It at least doubles when it grows, and a message more than
   twice its size gets a buffer of exactly its length. *)
let frame_buf (h : half) (n : int) : Bytes.t =
  if Bytes.length h.buf < n then h.buf <- Bytes.create (max n (2 * Bytes.length h.buf));
  h.buf

(* Buffered-first keystream consumption.  Each helper serves as much as
   possible from the precomputed window, then falls through to the live
   stream — which sits exactly [pre_len - pre_pos] bytes ahead, so the
   concatenation is the unbroken ARC4 sequence. *)

let pre_avail (h : half) : int = h.pre_len - h.pre_pos

(* In-place encrypt; returns how many bytes came from the buffer. *)
let encrypt_consume (h : half) (buf : Bytes.t) ~(off : int) ~(len : int) : int =
  let take = min (pre_avail h) len in
  for i = 0 to take - 1 do
    Bytes.set buf (off + i)
      (Char.chr (Char.code (Bytes.get buf (off + i)) lxor Char.code (Bytes.get h.pre (h.pre_pos + i))))
  done;
  h.pre_pos <- h.pre_pos + take;
  if len > take then Arc4.encrypt_into h.stream buf ~off:(off + take) ~len:(len - take);
  take

(* Decrypt [src] into [dst]; returns how many bytes came from the buffer. *)
let xor_consume (h : half) ~(src : string) ~(src_off : int) ~(dst : Bytes.t) ~(dst_off : int)
    ~(len : int) : int =
  let take = min (pre_avail h) len in
  for i = 0 to take - 1 do
    Bytes.set dst (dst_off + i)
      (Char.chr
         (Char.code (String.get src (src_off + i)) lxor Char.code (Bytes.get h.pre (h.pre_pos + i))))
  done;
  h.pre_pos <- h.pre_pos + take;
  if len > take then
    Arc4.xor_into h.stream ~src ~src_off:(src_off + take) ~dst ~dst_off:(dst_off + take)
      ~len:(len - take);
  take

let skip_consume (h : half) (n : int) : unit =
  let take = min (pre_avail h) n in
  h.pre_pos <- h.pre_pos + take;
  if n > take then Arc4.skip h.stream (n - take)

(* Draw the next 32 stream bytes (keystream xor zeros) and re-key the
   half's MAC from them: the per-message key of section 3.1.3, never
   used for encryption. *)
let rekey_mac (h : half) : unit =
  Bytes.fill h.mac_key 0 mac_key_bytes '\000';
  ignore (encrypt_consume h h.mac_key ~off:0 ~len:mac_key_bytes);
  Mac.rekey h.mac h.mac_key ~off:0 ~len:mac_key_bytes

(* Even with encryption disabled the channel keeps its framing and MAC
   discipline (the ablation removes only the ARC4 pass), so "SFS w/o
   encryption" still detects tampering, as the real system's
   no-encryption dialect would still MAC traffic.  The plaintext is the
   first [len] bytes of [src]: an encoder's buffer seals with no copy
   of its own. *)
let seal_bytes ?(bill = true) (t : t) (src : Bytes.t) ~len:(n : int) : string =
  Obs.span t.obs ~cat:"channel" "seal" (fun () ->
      Obs.incr t.obs t.keys.k_sent;
      Obs.add t.obs t.keys.k_bytes_out n;
      if t.encrypt then
        Obs.add t.obs t.keys.k_crypto_us_out
          (int_of_float (Costmodel.crypto_us n));
      if bill then charge t n;
      rekey_mac t.send_half;
      (* Frame assembled in place: be32 length ∥ plaintext ∥ MAC, the
         tag written directly after the bytes it covers, then one
         cipher pass over the whole frame. *)
      let frame_len = 4 + n + Mac.mac_size in
      let buf = frame_buf t.send_half frame_len in
      Sfs_util.Bytesutil.put_be32 buf ~off:0 n;
      Bytes.blit src 0 buf 4 n;
      Mac.mac_into t.send_half.mac buf ~off:0 ~len:(4 + n) ~dst:buf ~dst_off:(4 + n);
      if t.encrypt then ignore (encrypt_consume t.send_half buf ~off:0 ~len:frame_len)
      else
        (* Keep the stream positions in lock-step with the encrypted mode. *)
        skip_consume t.send_half frame_len;
      Bytes.sub_string buf 0 frame_len)

(* [seal_bytes] only reads its source, so a string is sealed in place. *)
let seal ?bill (t : t) (plaintext : string) : string =
  seal_bytes ?bill t (Bytes.unsafe_of_string plaintext) ~len:(String.length plaintext)

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
      t.recv_claim_us <- 0.0;
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
        let from_buf =
          if t.encrypt then
            xor_consume t.recv_half ~src:wire ~src_off:0 ~dst:buf ~dst_off:0 ~len:wire_len
          else begin
            Bytes.blit_string wire 0 buf 0 wire_len;
            skip_consume t.recv_half wire_len;
            0
          end
        in
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
          (* The keystream share of this message that precompute had
             already generated — creditable against whoever is billed
             for the peer's seal (the mux's srv timeline).  Capped at
             the payload's keystream share so framing overhead served
             from the buffer is never monetised. *)
          if t.encrypt && from_buf > 0 then
            t.recv_claim_us <- Costmodel.keystream_us (min len from_buf);
          Ok (f (Sfs_util.Slice.make (Bytes.unsafe_to_string buf) ~off:4 ~len))
        end
      end)

let open_ (t : t) (wire : string) : (string, open_error) result =
  open_with t wire Sfs_util.Slice.to_string

(* The crypto time [seal] would charge for [bytes], for callers that
   bill pipelined traffic at a fraction. *)
let crypto_cost_us (t : t) (bytes : int) : float =
  if t.encrypt then Costmodel.crypto_us bytes else 0.0

(* Spend up to [budget_us] of (already-elapsed, otherwise-dead) time
   generating keystream ahead of need.  Charges nothing to the clock:
   the bytes are billed against the donated idle time, and the counter
   pair keystream_precomputed_us / mux.idle_us_used lets a test prove
   the two ledgers agree.  Deterministic: byte counts derive only from
   the budget and the cost model, never from host time. *)
let precompute ?(dir = `Recv) (t : t) ~(budget_us : float) : float =
  if (not t.encrypt) || budget_us <= 0.0 then 0.0
  else begin
    let rate = Costmodel.keystream_us_per_byte in
    let h = match dir with `Send -> t.send_half | `Recv -> t.recv_half in
    let avail = pre_avail h in
    let want = min (int_of_float (budget_us /. rate)) (pre_cap - avail) in
    if want <= 0 then 0.0
    else begin
      (* Compact the unconsumed tail to the front, grow on demand. *)
      if h.pre_pos > 0 then begin
        Bytes.blit h.pre h.pre_pos h.pre 0 avail;
        h.pre_pos <- 0;
        h.pre_len <- avail
      end;
      if Bytes.length h.pre < avail + want then begin
        let cap = ref (max 256 (Bytes.length h.pre)) in
        while !cap < avail + want do
          cap := !cap * 2
        done;
        let grown = Bytes.create !cap in
        Bytes.blit h.pre 0 grown 0 avail;
        h.pre <- grown
      end;
      Arc4.keystream_into h.stream h.pre ~off:h.pre_len ~len:want;
      h.pre_len <- h.pre_len + want;
      let used_us = float_of_int want *. rate in
      Obs.add t.obs t.keys.k_keystream_pre (int_of_float used_us);
      used_us
    end
  end

let take_recv_claim (t : t) : float =
  let c = t.recv_claim_us in
  t.recv_claim_us <- 0.0;
  if c > 0.0 then Obs.add t.obs t.keys.k_keystream_used (int_of_float c);
  c
