(* ARC4 stream cipher ("alleged RC4", Kaukonen-Thayer draft).

   SFS assumes ARC4 is a pseudo-random generator (paper section 3.1.3)
   and uses it with two implementation tweaks (section 3.1.3):

   - 20-byte keys, by spinning the key schedule once for each 128 bits
     (16 bytes) of key data;
   - the stream runs for the whole session, with 32 bytes pulled out per
     message to re-key the MAC (those bytes are never used to encrypt).

   The keystream after the schedule is identical to standard ARC4.

   The stream advances in blocks: each [*_into] entry point hoists the
   cursor fields into locals and runs an unsafe inner loop after a
   single bounds check, so the per-byte cost is the cipher itself, not
   bounds checks and closure calls.  [next_byte] remains the one-byte
   reference path; property tests check the block loops against it. *)

(* The permutation lives in an [int array], not [Bytes]: int-array
   loads and stores are single instructions (the value is already a
   tagged int, and immediate stores skip the write barrier), where
   byte access pays a tag fix-up on every load and store.  At 2 KB the
   state still sits comfortably in L1. *)
type t = { s : int array; mutable i : int; mutable j : int }

(* One pass of the ARC4 key schedule over the current state. *)
let schedule_pass (st : int array) (key : string) =
  let klen = String.length key in
  let j = ref 0 in
  for i = 0 to 255 do
    let si = st.(i) in
    j := (!j + si + Char.code key.[i mod klen]) land 0xff;
    st.(i) <- st.(!j);
    st.(!j) <- si
  done

let create (key : string) : t =
  if String.length key = 0 then invalid_arg "Arc4.create: empty key";
  let s = Array.init 256 (fun i -> i) in
  (* Spin the schedule once per 16-byte chunk of key material, so a
     20-byte key gets two passes.  A short key gets the single standard
     pass, keeping us interoperable with plain ARC4. *)
  let chunks = Sfs_util.Bytesutil.chunks ~size:16 key in
  List.iter (fun chunk -> schedule_pass s chunk) chunks;
  { s; i = 0; j = 0 }

(* Reference single-byte step; the block loops below inline the same
   recurrence. *)
let next_byte (t : t) : int =
  t.i <- (t.i + 1) land 0xff;
  let si = t.s.(t.i) in
  t.j <- (t.j + si) land 0xff;
  let sj = t.s.(t.j) in
  t.s.(t.i) <- sj;
  t.s.(t.j) <- si;
  t.s.((si + sj) land 0xff)

(* Advance the stream [n] bytes without producing output: the channel's
   no-encrypt mode still consumes stream positions to stay in lock-step
   with the peer, and this avoids materializing a throwaway string. *)
let skip (t : t) (n : int) : unit =
  if n < 0 then invalid_arg "Arc4.skip";
  let s = t.s in
  let i = ref t.i and j = ref t.j in
  for _ = 1 to n do
    i := (!i + 1) land 0xff;
    let si = Array.unsafe_get s !i in
    j := (!j + si) land 0xff;
    let sj = Array.unsafe_get s !j in
    Array.unsafe_set s !i sj;
    Array.unsafe_set s !j si
  done;
  t.i <- !i;
  t.j <- !j

(* In-place xor of [len] bytes of [buf] at [off] against the stream:
   the channel encrypts (and decrypts) whole frames in their own
   buffer with a single pass and zero copies. *)
let encrypt_into (t : t) (buf : Bytes.t) ~(off : int) ~(len : int) : unit =
  if off < 0 || len < 0 || off + len > Bytes.length buf then
    invalid_arg "Arc4.encrypt_into";
  let s = t.s in
  let i = ref t.i and j = ref t.j in
  for k = off to off + len - 1 do
    i := (!i + 1) land 0xff;
    let si = Array.unsafe_get s !i in
    j := (!j + si) land 0xff;
    let sj = Array.unsafe_get s !j in
    Array.unsafe_set s !i sj;
    Array.unsafe_set s !j si;
    let ks = Array.unsafe_get s ((si + sj) land 0xff) in
    Bytes.unsafe_set buf k
      (Char.unsafe_chr (Char.code (Bytes.unsafe_get buf k) lxor ks))
  done;
  t.i <- !i;
  t.j <- !j

(* Xor [len] bytes of [src] at [src_off] into [dst] at [dst_off]: the
   decrypt path of the channel, reading straight from the wire string
   into the reusable frame buffer. *)
let xor_into (t : t) ~(src : string) ~(src_off : int) ~(dst : Bytes.t) ~(dst_off : int)
    ~(len : int) : unit =
  if
    src_off < 0 || dst_off < 0 || len < 0
    || src_off + len > String.length src
    || dst_off + len > Bytes.length dst
  then invalid_arg "Arc4.xor_into";
  let s = t.s in
  let i = ref t.i and j = ref t.j in
  for k = 0 to len - 1 do
    i := (!i + 1) land 0xff;
    let si = Array.unsafe_get s !i in
    j := (!j + si) land 0xff;
    let sj = Array.unsafe_get s !j in
    Array.unsafe_set s !i sj;
    Array.unsafe_set s !j si;
    let ks = Array.unsafe_get s ((si + sj) land 0xff) in
    Bytes.unsafe_set dst (dst_off + k)
      (Char.unsafe_chr (Char.code (String.unsafe_get src (src_off + k)) lxor ks))
  done;
  t.i <- !i;
  t.j <- !j

let keystream (t : t) (n : int) : string =
  if n < 0 then invalid_arg "Arc4.keystream";
  let buf = Bytes.make n '\000' in
  encrypt_into t buf ~off:0 ~len:n;
  Bytes.unsafe_to_string buf

let encrypt (t : t) (plaintext : string) : string =
  let buf = Bytes.of_string plaintext in
  encrypt_into t buf ~off:0 ~len:(Bytes.length buf);
  Bytes.unsafe_to_string buf

(* Decryption is the same xor against the same stream position. *)
let decrypt = encrypt
