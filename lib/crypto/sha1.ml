(* SHA-1 (FIPS 180-1).

   SFS assumes SHA-1 behaves like a random oracle (paper section 3.1.3):
   it derives HostIDs, session keys, AuthIDs, the MAC and the PRNG from
   it.  The compression function is the hot path of the whole system:
   it runs fully unrolled on unboxed int32 locals (see [compress]),
   and the [feed_bytes]/[digest_into] entry points let callers hash
   and emit directly from/to wire buffers with no staging copies. *)

type ctx = {
  mutable h0 : int;
  mutable h1 : int;
  mutable h2 : int;
  mutable h3 : int;
  mutable h4 : int;
  block : Bytes.t; (* 64-byte staging buffer *)
  mutable used : int; (* bytes currently staged *)
  mutable length : int; (* total message bytes, unboxed *)
}

let mask32 = 0xFFFFFFFF

let init () =
  {
    h0 = 0x67452301;
    h1 = 0xEFCDAB89;
    h2 = 0x98BADCFE;
    h3 = 0x10325476;
    h4 = 0xC3D2E1F0;
    block = Bytes.create 64;
    used = 0;
    length = 0;
  }

let reset (c : ctx) : unit =
  c.h0 <- 0x67452301;
  c.h1 <- 0xEFCDAB89;
  c.h2 <- 0x98BADCFE;
  c.h3 <- 0x10325476;
  c.h4 <- 0xC3D2E1F0;
  c.used <- 0;
  c.length <- 0

(* Overwrite [dst] with a running context: the basis of the reusable
   HMAC schedules (Mac.schedule), which resume from a pre-fed key block
   instead of recompressing it per message, with no allocation.  Only
   the staged bytes of the block are live. *)
let copy_into (src : ctx) ~(dst : ctx) : unit =
  dst.h0 <- src.h0;
  dst.h1 <- src.h1;
  dst.h2 <- src.h2;
  dst.h3 <- src.h3;
  dst.h4 <- src.h4;
  Bytes.blit src.block 0 dst.block 0 src.used;
  dst.used <- src.used;
  dst.length <- src.length

(* The compression core runs on [int32], not tagged [int]: the
   compiler unboxes local int32 arithmetic into genuine 32-bit
   registers, so rotates are two shifts and an or with no tag fix-ups
   and no masking (int32 wraps naturally).  On tagged ints every shift
   pays untag/retag and every round pays a mask; measured, the int32
   core is nearly twice as fast. *)
let ( +% ) = Int32.add

let[@inline] rotl (x : int32) (n : int) : int32 =
  Int32.logor (Int32.shift_left x n) (Int32.shift_right_logical x (32 - n))

(* The values of [c.h0..c.h4] are kept canonical: 0 .. 2^32-1. *)
let[@inline] to_u32 (x : int32) : int = Int32.to_int x land mask32

(* One 512-bit block at [off] in [buf].  The caller guarantees
   [off + 64 <= Bytes.length buf]; everything inside is unsafe.

   Fully unrolled, mechanically generated (the 5-round variable
   rotation repeats 16 times, with the 16-word schedule kept in
   let-bound locals rebound in a rolling window instead of an 80-entry
   array).  Every intermediate is an immutable int32 let, which the
   compiler keeps in registers: no schedule stores, no tag fix-ups, no
   masking.  Do not hand-edit the round lines; regenerate or derive
   them from the pattern. *)
let compress (st : ctx) (buf : Bytes.t) (off : int) =
  (* 16 schedule words, loaded big-endian. *)
  let w0 = Int32.of_int ((Char.code (Bytes.unsafe_get buf (off + 0)) lsl 24)
    lor (Char.code (Bytes.unsafe_get buf (off + 1)) lsl 16)
    lor (Char.code (Bytes.unsafe_get buf (off + 2)) lsl 8)
    lor Char.code (Bytes.unsafe_get buf (off + 3))) in
  let w1 = Int32.of_int ((Char.code (Bytes.unsafe_get buf (off + 4)) lsl 24)
    lor (Char.code (Bytes.unsafe_get buf (off + 5)) lsl 16)
    lor (Char.code (Bytes.unsafe_get buf (off + 6)) lsl 8)
    lor Char.code (Bytes.unsafe_get buf (off + 7))) in
  let w2 = Int32.of_int ((Char.code (Bytes.unsafe_get buf (off + 8)) lsl 24)
    lor (Char.code (Bytes.unsafe_get buf (off + 9)) lsl 16)
    lor (Char.code (Bytes.unsafe_get buf (off + 10)) lsl 8)
    lor Char.code (Bytes.unsafe_get buf (off + 11))) in
  let w3 = Int32.of_int ((Char.code (Bytes.unsafe_get buf (off + 12)) lsl 24)
    lor (Char.code (Bytes.unsafe_get buf (off + 13)) lsl 16)
    lor (Char.code (Bytes.unsafe_get buf (off + 14)) lsl 8)
    lor Char.code (Bytes.unsafe_get buf (off + 15))) in
  let w4 = Int32.of_int ((Char.code (Bytes.unsafe_get buf (off + 16)) lsl 24)
    lor (Char.code (Bytes.unsafe_get buf (off + 17)) lsl 16)
    lor (Char.code (Bytes.unsafe_get buf (off + 18)) lsl 8)
    lor Char.code (Bytes.unsafe_get buf (off + 19))) in
  let w5 = Int32.of_int ((Char.code (Bytes.unsafe_get buf (off + 20)) lsl 24)
    lor (Char.code (Bytes.unsafe_get buf (off + 21)) lsl 16)
    lor (Char.code (Bytes.unsafe_get buf (off + 22)) lsl 8)
    lor Char.code (Bytes.unsafe_get buf (off + 23))) in
  let w6 = Int32.of_int ((Char.code (Bytes.unsafe_get buf (off + 24)) lsl 24)
    lor (Char.code (Bytes.unsafe_get buf (off + 25)) lsl 16)
    lor (Char.code (Bytes.unsafe_get buf (off + 26)) lsl 8)
    lor Char.code (Bytes.unsafe_get buf (off + 27))) in
  let w7 = Int32.of_int ((Char.code (Bytes.unsafe_get buf (off + 28)) lsl 24)
    lor (Char.code (Bytes.unsafe_get buf (off + 29)) lsl 16)
    lor (Char.code (Bytes.unsafe_get buf (off + 30)) lsl 8)
    lor Char.code (Bytes.unsafe_get buf (off + 31))) in
  let w8 = Int32.of_int ((Char.code (Bytes.unsafe_get buf (off + 32)) lsl 24)
    lor (Char.code (Bytes.unsafe_get buf (off + 33)) lsl 16)
    lor (Char.code (Bytes.unsafe_get buf (off + 34)) lsl 8)
    lor Char.code (Bytes.unsafe_get buf (off + 35))) in
  let w9 = Int32.of_int ((Char.code (Bytes.unsafe_get buf (off + 36)) lsl 24)
    lor (Char.code (Bytes.unsafe_get buf (off + 37)) lsl 16)
    lor (Char.code (Bytes.unsafe_get buf (off + 38)) lsl 8)
    lor Char.code (Bytes.unsafe_get buf (off + 39))) in
  let w10 = Int32.of_int ((Char.code (Bytes.unsafe_get buf (off + 40)) lsl 24)
    lor (Char.code (Bytes.unsafe_get buf (off + 41)) lsl 16)
    lor (Char.code (Bytes.unsafe_get buf (off + 42)) lsl 8)
    lor Char.code (Bytes.unsafe_get buf (off + 43))) in
  let w11 = Int32.of_int ((Char.code (Bytes.unsafe_get buf (off + 44)) lsl 24)
    lor (Char.code (Bytes.unsafe_get buf (off + 45)) lsl 16)
    lor (Char.code (Bytes.unsafe_get buf (off + 46)) lsl 8)
    lor Char.code (Bytes.unsafe_get buf (off + 47))) in
  let w12 = Int32.of_int ((Char.code (Bytes.unsafe_get buf (off + 48)) lsl 24)
    lor (Char.code (Bytes.unsafe_get buf (off + 49)) lsl 16)
    lor (Char.code (Bytes.unsafe_get buf (off + 50)) lsl 8)
    lor Char.code (Bytes.unsafe_get buf (off + 51))) in
  let w13 = Int32.of_int ((Char.code (Bytes.unsafe_get buf (off + 52)) lsl 24)
    lor (Char.code (Bytes.unsafe_get buf (off + 53)) lsl 16)
    lor (Char.code (Bytes.unsafe_get buf (off + 54)) lsl 8)
    lor Char.code (Bytes.unsafe_get buf (off + 55))) in
  let w14 = Int32.of_int ((Char.code (Bytes.unsafe_get buf (off + 56)) lsl 24)
    lor (Char.code (Bytes.unsafe_get buf (off + 57)) lsl 16)
    lor (Char.code (Bytes.unsafe_get buf (off + 58)) lsl 8)
    lor Char.code (Bytes.unsafe_get buf (off + 59))) in
  let w15 = Int32.of_int ((Char.code (Bytes.unsafe_get buf (off + 60)) lsl 24)
    lor (Char.code (Bytes.unsafe_get buf (off + 61)) lsl 16)
    lor (Char.code (Bytes.unsafe_get buf (off + 62)) lsl 8)
    lor Char.code (Bytes.unsafe_get buf (off + 63))) in
  let a = Int32.of_int st.h0 in
  let b = Int32.of_int st.h1 in
  let c = Int32.of_int st.h2 in
  let d = Int32.of_int st.h3 in
  let e = Int32.of_int st.h4 in
  let e = rotl a 5 +% (Int32.logor (Int32.logand b c) (Int32.logand (Int32.lognot b) d)) +% e +% w0 +% 0x5A827999l in
  let b = rotl b 30 in
  let d = rotl e 5 +% (Int32.logor (Int32.logand a b) (Int32.logand (Int32.lognot a) c)) +% d +% w1 +% 0x5A827999l in
  let a = rotl a 30 in
  let c = rotl d 5 +% (Int32.logor (Int32.logand e a) (Int32.logand (Int32.lognot e) b)) +% c +% w2 +% 0x5A827999l in
  let e = rotl e 30 in
  let b = rotl c 5 +% (Int32.logor (Int32.logand d e) (Int32.logand (Int32.lognot d) a)) +% b +% w3 +% 0x5A827999l in
  let d = rotl d 30 in
  let a = rotl b 5 +% (Int32.logor (Int32.logand c d) (Int32.logand (Int32.lognot c) e)) +% a +% w4 +% 0x5A827999l in
  let c = rotl c 30 in
  let e = rotl a 5 +% (Int32.logor (Int32.logand b c) (Int32.logand (Int32.lognot b) d)) +% e +% w5 +% 0x5A827999l in
  let b = rotl b 30 in
  let d = rotl e 5 +% (Int32.logor (Int32.logand a b) (Int32.logand (Int32.lognot a) c)) +% d +% w6 +% 0x5A827999l in
  let a = rotl a 30 in
  let c = rotl d 5 +% (Int32.logor (Int32.logand e a) (Int32.logand (Int32.lognot e) b)) +% c +% w7 +% 0x5A827999l in
  let e = rotl e 30 in
  let b = rotl c 5 +% (Int32.logor (Int32.logand d e) (Int32.logand (Int32.lognot d) a)) +% b +% w8 +% 0x5A827999l in
  let d = rotl d 30 in
  let a = rotl b 5 +% (Int32.logor (Int32.logand c d) (Int32.logand (Int32.lognot c) e)) +% a +% w9 +% 0x5A827999l in
  let c = rotl c 30 in
  let e = rotl a 5 +% (Int32.logor (Int32.logand b c) (Int32.logand (Int32.lognot b) d)) +% e +% w10 +% 0x5A827999l in
  let b = rotl b 30 in
  let d = rotl e 5 +% (Int32.logor (Int32.logand a b) (Int32.logand (Int32.lognot a) c)) +% d +% w11 +% 0x5A827999l in
  let a = rotl a 30 in
  let c = rotl d 5 +% (Int32.logor (Int32.logand e a) (Int32.logand (Int32.lognot e) b)) +% c +% w12 +% 0x5A827999l in
  let e = rotl e 30 in
  let b = rotl c 5 +% (Int32.logor (Int32.logand d e) (Int32.logand (Int32.lognot d) a)) +% b +% w13 +% 0x5A827999l in
  let d = rotl d 30 in
  let a = rotl b 5 +% (Int32.logor (Int32.logand c d) (Int32.logand (Int32.lognot c) e)) +% a +% w14 +% 0x5A827999l in
  let c = rotl c 30 in
  let e = rotl a 5 +% (Int32.logor (Int32.logand b c) (Int32.logand (Int32.lognot b) d)) +% e +% w15 +% 0x5A827999l in
  let b = rotl b 30 in
  let w0 = rotl (Int32.logxor (Int32.logxor w13 w8) (Int32.logxor w2 w0)) 1 in
  let d = rotl e 5 +% (Int32.logor (Int32.logand a b) (Int32.logand (Int32.lognot a) c)) +% d +% w0 +% 0x5A827999l in
  let a = rotl a 30 in
  let w1 = rotl (Int32.logxor (Int32.logxor w14 w9) (Int32.logxor w3 w1)) 1 in
  let c = rotl d 5 +% (Int32.logor (Int32.logand e a) (Int32.logand (Int32.lognot e) b)) +% c +% w1 +% 0x5A827999l in
  let e = rotl e 30 in
  let w2 = rotl (Int32.logxor (Int32.logxor w15 w10) (Int32.logxor w4 w2)) 1 in
  let b = rotl c 5 +% (Int32.logor (Int32.logand d e) (Int32.logand (Int32.lognot d) a)) +% b +% w2 +% 0x5A827999l in
  let d = rotl d 30 in
  let w3 = rotl (Int32.logxor (Int32.logxor w0 w11) (Int32.logxor w5 w3)) 1 in
  let a = rotl b 5 +% (Int32.logor (Int32.logand c d) (Int32.logand (Int32.lognot c) e)) +% a +% w3 +% 0x5A827999l in
  let c = rotl c 30 in
  let w4 = rotl (Int32.logxor (Int32.logxor w1 w12) (Int32.logxor w6 w4)) 1 in
  let e = rotl a 5 +% (Int32.logxor b (Int32.logxor c d)) +% e +% w4 +% 0x6ED9EBA1l in
  let b = rotl b 30 in
  let w5 = rotl (Int32.logxor (Int32.logxor w2 w13) (Int32.logxor w7 w5)) 1 in
  let d = rotl e 5 +% (Int32.logxor a (Int32.logxor b c)) +% d +% w5 +% 0x6ED9EBA1l in
  let a = rotl a 30 in
  let w6 = rotl (Int32.logxor (Int32.logxor w3 w14) (Int32.logxor w8 w6)) 1 in
  let c = rotl d 5 +% (Int32.logxor e (Int32.logxor a b)) +% c +% w6 +% 0x6ED9EBA1l in
  let e = rotl e 30 in
  let w7 = rotl (Int32.logxor (Int32.logxor w4 w15) (Int32.logxor w9 w7)) 1 in
  let b = rotl c 5 +% (Int32.logxor d (Int32.logxor e a)) +% b +% w7 +% 0x6ED9EBA1l in
  let d = rotl d 30 in
  let w8 = rotl (Int32.logxor (Int32.logxor w5 w0) (Int32.logxor w10 w8)) 1 in
  let a = rotl b 5 +% (Int32.logxor c (Int32.logxor d e)) +% a +% w8 +% 0x6ED9EBA1l in
  let c = rotl c 30 in
  let w9 = rotl (Int32.logxor (Int32.logxor w6 w1) (Int32.logxor w11 w9)) 1 in
  let e = rotl a 5 +% (Int32.logxor b (Int32.logxor c d)) +% e +% w9 +% 0x6ED9EBA1l in
  let b = rotl b 30 in
  let w10 = rotl (Int32.logxor (Int32.logxor w7 w2) (Int32.logxor w12 w10)) 1 in
  let d = rotl e 5 +% (Int32.logxor a (Int32.logxor b c)) +% d +% w10 +% 0x6ED9EBA1l in
  let a = rotl a 30 in
  let w11 = rotl (Int32.logxor (Int32.logxor w8 w3) (Int32.logxor w13 w11)) 1 in
  let c = rotl d 5 +% (Int32.logxor e (Int32.logxor a b)) +% c +% w11 +% 0x6ED9EBA1l in
  let e = rotl e 30 in
  let w12 = rotl (Int32.logxor (Int32.logxor w9 w4) (Int32.logxor w14 w12)) 1 in
  let b = rotl c 5 +% (Int32.logxor d (Int32.logxor e a)) +% b +% w12 +% 0x6ED9EBA1l in
  let d = rotl d 30 in
  let w13 = rotl (Int32.logxor (Int32.logxor w10 w5) (Int32.logxor w15 w13)) 1 in
  let a = rotl b 5 +% (Int32.logxor c (Int32.logxor d e)) +% a +% w13 +% 0x6ED9EBA1l in
  let c = rotl c 30 in
  let w14 = rotl (Int32.logxor (Int32.logxor w11 w6) (Int32.logxor w0 w14)) 1 in
  let e = rotl a 5 +% (Int32.logxor b (Int32.logxor c d)) +% e +% w14 +% 0x6ED9EBA1l in
  let b = rotl b 30 in
  let w15 = rotl (Int32.logxor (Int32.logxor w12 w7) (Int32.logxor w1 w15)) 1 in
  let d = rotl e 5 +% (Int32.logxor a (Int32.logxor b c)) +% d +% w15 +% 0x6ED9EBA1l in
  let a = rotl a 30 in
  let w0 = rotl (Int32.logxor (Int32.logxor w13 w8) (Int32.logxor w2 w0)) 1 in
  let c = rotl d 5 +% (Int32.logxor e (Int32.logxor a b)) +% c +% w0 +% 0x6ED9EBA1l in
  let e = rotl e 30 in
  let w1 = rotl (Int32.logxor (Int32.logxor w14 w9) (Int32.logxor w3 w1)) 1 in
  let b = rotl c 5 +% (Int32.logxor d (Int32.logxor e a)) +% b +% w1 +% 0x6ED9EBA1l in
  let d = rotl d 30 in
  let w2 = rotl (Int32.logxor (Int32.logxor w15 w10) (Int32.logxor w4 w2)) 1 in
  let a = rotl b 5 +% (Int32.logxor c (Int32.logxor d e)) +% a +% w2 +% 0x6ED9EBA1l in
  let c = rotl c 30 in
  let w3 = rotl (Int32.logxor (Int32.logxor w0 w11) (Int32.logxor w5 w3)) 1 in
  let e = rotl a 5 +% (Int32.logxor b (Int32.logxor c d)) +% e +% w3 +% 0x6ED9EBA1l in
  let b = rotl b 30 in
  let w4 = rotl (Int32.logxor (Int32.logxor w1 w12) (Int32.logxor w6 w4)) 1 in
  let d = rotl e 5 +% (Int32.logxor a (Int32.logxor b c)) +% d +% w4 +% 0x6ED9EBA1l in
  let a = rotl a 30 in
  let w5 = rotl (Int32.logxor (Int32.logxor w2 w13) (Int32.logxor w7 w5)) 1 in
  let c = rotl d 5 +% (Int32.logxor e (Int32.logxor a b)) +% c +% w5 +% 0x6ED9EBA1l in
  let e = rotl e 30 in
  let w6 = rotl (Int32.logxor (Int32.logxor w3 w14) (Int32.logxor w8 w6)) 1 in
  let b = rotl c 5 +% (Int32.logxor d (Int32.logxor e a)) +% b +% w6 +% 0x6ED9EBA1l in
  let d = rotl d 30 in
  let w7 = rotl (Int32.logxor (Int32.logxor w4 w15) (Int32.logxor w9 w7)) 1 in
  let a = rotl b 5 +% (Int32.logxor c (Int32.logxor d e)) +% a +% w7 +% 0x6ED9EBA1l in
  let c = rotl c 30 in
  let w8 = rotl (Int32.logxor (Int32.logxor w5 w0) (Int32.logxor w10 w8)) 1 in
  let e = rotl a 5 +% (Int32.logor (Int32.logand b c) (Int32.logor (Int32.logand b d) (Int32.logand c d))) +% e +% w8 +% 0x8F1BBCDCl in
  let b = rotl b 30 in
  let w9 = rotl (Int32.logxor (Int32.logxor w6 w1) (Int32.logxor w11 w9)) 1 in
  let d = rotl e 5 +% (Int32.logor (Int32.logand a b) (Int32.logor (Int32.logand a c) (Int32.logand b c))) +% d +% w9 +% 0x8F1BBCDCl in
  let a = rotl a 30 in
  let w10 = rotl (Int32.logxor (Int32.logxor w7 w2) (Int32.logxor w12 w10)) 1 in
  let c = rotl d 5 +% (Int32.logor (Int32.logand e a) (Int32.logor (Int32.logand e b) (Int32.logand a b))) +% c +% w10 +% 0x8F1BBCDCl in
  let e = rotl e 30 in
  let w11 = rotl (Int32.logxor (Int32.logxor w8 w3) (Int32.logxor w13 w11)) 1 in
  let b = rotl c 5 +% (Int32.logor (Int32.logand d e) (Int32.logor (Int32.logand d a) (Int32.logand e a))) +% b +% w11 +% 0x8F1BBCDCl in
  let d = rotl d 30 in
  let w12 = rotl (Int32.logxor (Int32.logxor w9 w4) (Int32.logxor w14 w12)) 1 in
  let a = rotl b 5 +% (Int32.logor (Int32.logand c d) (Int32.logor (Int32.logand c e) (Int32.logand d e))) +% a +% w12 +% 0x8F1BBCDCl in
  let c = rotl c 30 in
  let w13 = rotl (Int32.logxor (Int32.logxor w10 w5) (Int32.logxor w15 w13)) 1 in
  let e = rotl a 5 +% (Int32.logor (Int32.logand b c) (Int32.logor (Int32.logand b d) (Int32.logand c d))) +% e +% w13 +% 0x8F1BBCDCl in
  let b = rotl b 30 in
  let w14 = rotl (Int32.logxor (Int32.logxor w11 w6) (Int32.logxor w0 w14)) 1 in
  let d = rotl e 5 +% (Int32.logor (Int32.logand a b) (Int32.logor (Int32.logand a c) (Int32.logand b c))) +% d +% w14 +% 0x8F1BBCDCl in
  let a = rotl a 30 in
  let w15 = rotl (Int32.logxor (Int32.logxor w12 w7) (Int32.logxor w1 w15)) 1 in
  let c = rotl d 5 +% (Int32.logor (Int32.logand e a) (Int32.logor (Int32.logand e b) (Int32.logand a b))) +% c +% w15 +% 0x8F1BBCDCl in
  let e = rotl e 30 in
  let w0 = rotl (Int32.logxor (Int32.logxor w13 w8) (Int32.logxor w2 w0)) 1 in
  let b = rotl c 5 +% (Int32.logor (Int32.logand d e) (Int32.logor (Int32.logand d a) (Int32.logand e a))) +% b +% w0 +% 0x8F1BBCDCl in
  let d = rotl d 30 in
  let w1 = rotl (Int32.logxor (Int32.logxor w14 w9) (Int32.logxor w3 w1)) 1 in
  let a = rotl b 5 +% (Int32.logor (Int32.logand c d) (Int32.logor (Int32.logand c e) (Int32.logand d e))) +% a +% w1 +% 0x8F1BBCDCl in
  let c = rotl c 30 in
  let w2 = rotl (Int32.logxor (Int32.logxor w15 w10) (Int32.logxor w4 w2)) 1 in
  let e = rotl a 5 +% (Int32.logor (Int32.logand b c) (Int32.logor (Int32.logand b d) (Int32.logand c d))) +% e +% w2 +% 0x8F1BBCDCl in
  let b = rotl b 30 in
  let w3 = rotl (Int32.logxor (Int32.logxor w0 w11) (Int32.logxor w5 w3)) 1 in
  let d = rotl e 5 +% (Int32.logor (Int32.logand a b) (Int32.logor (Int32.logand a c) (Int32.logand b c))) +% d +% w3 +% 0x8F1BBCDCl in
  let a = rotl a 30 in
  let w4 = rotl (Int32.logxor (Int32.logxor w1 w12) (Int32.logxor w6 w4)) 1 in
  let c = rotl d 5 +% (Int32.logor (Int32.logand e a) (Int32.logor (Int32.logand e b) (Int32.logand a b))) +% c +% w4 +% 0x8F1BBCDCl in
  let e = rotl e 30 in
  let w5 = rotl (Int32.logxor (Int32.logxor w2 w13) (Int32.logxor w7 w5)) 1 in
  let b = rotl c 5 +% (Int32.logor (Int32.logand d e) (Int32.logor (Int32.logand d a) (Int32.logand e a))) +% b +% w5 +% 0x8F1BBCDCl in
  let d = rotl d 30 in
  let w6 = rotl (Int32.logxor (Int32.logxor w3 w14) (Int32.logxor w8 w6)) 1 in
  let a = rotl b 5 +% (Int32.logor (Int32.logand c d) (Int32.logor (Int32.logand c e) (Int32.logand d e))) +% a +% w6 +% 0x8F1BBCDCl in
  let c = rotl c 30 in
  let w7 = rotl (Int32.logxor (Int32.logxor w4 w15) (Int32.logxor w9 w7)) 1 in
  let e = rotl a 5 +% (Int32.logor (Int32.logand b c) (Int32.logor (Int32.logand b d) (Int32.logand c d))) +% e +% w7 +% 0x8F1BBCDCl in
  let b = rotl b 30 in
  let w8 = rotl (Int32.logxor (Int32.logxor w5 w0) (Int32.logxor w10 w8)) 1 in
  let d = rotl e 5 +% (Int32.logor (Int32.logand a b) (Int32.logor (Int32.logand a c) (Int32.logand b c))) +% d +% w8 +% 0x8F1BBCDCl in
  let a = rotl a 30 in
  let w9 = rotl (Int32.logxor (Int32.logxor w6 w1) (Int32.logxor w11 w9)) 1 in
  let c = rotl d 5 +% (Int32.logor (Int32.logand e a) (Int32.logor (Int32.logand e b) (Int32.logand a b))) +% c +% w9 +% 0x8F1BBCDCl in
  let e = rotl e 30 in
  let w10 = rotl (Int32.logxor (Int32.logxor w7 w2) (Int32.logxor w12 w10)) 1 in
  let b = rotl c 5 +% (Int32.logor (Int32.logand d e) (Int32.logor (Int32.logand d a) (Int32.logand e a))) +% b +% w10 +% 0x8F1BBCDCl in
  let d = rotl d 30 in
  let w11 = rotl (Int32.logxor (Int32.logxor w8 w3) (Int32.logxor w13 w11)) 1 in
  let a = rotl b 5 +% (Int32.logor (Int32.logand c d) (Int32.logor (Int32.logand c e) (Int32.logand d e))) +% a +% w11 +% 0x8F1BBCDCl in
  let c = rotl c 30 in
  let w12 = rotl (Int32.logxor (Int32.logxor w9 w4) (Int32.logxor w14 w12)) 1 in
  let e = rotl a 5 +% (Int32.logxor b (Int32.logxor c d)) +% e +% w12 +% 0xCA62C1D6l in
  let b = rotl b 30 in
  let w13 = rotl (Int32.logxor (Int32.logxor w10 w5) (Int32.logxor w15 w13)) 1 in
  let d = rotl e 5 +% (Int32.logxor a (Int32.logxor b c)) +% d +% w13 +% 0xCA62C1D6l in
  let a = rotl a 30 in
  let w14 = rotl (Int32.logxor (Int32.logxor w11 w6) (Int32.logxor w0 w14)) 1 in
  let c = rotl d 5 +% (Int32.logxor e (Int32.logxor a b)) +% c +% w14 +% 0xCA62C1D6l in
  let e = rotl e 30 in
  let w15 = rotl (Int32.logxor (Int32.logxor w12 w7) (Int32.logxor w1 w15)) 1 in
  let b = rotl c 5 +% (Int32.logxor d (Int32.logxor e a)) +% b +% w15 +% 0xCA62C1D6l in
  let d = rotl d 30 in
  let w0 = rotl (Int32.logxor (Int32.logxor w13 w8) (Int32.logxor w2 w0)) 1 in
  let a = rotl b 5 +% (Int32.logxor c (Int32.logxor d e)) +% a +% w0 +% 0xCA62C1D6l in
  let c = rotl c 30 in
  let w1 = rotl (Int32.logxor (Int32.logxor w14 w9) (Int32.logxor w3 w1)) 1 in
  let e = rotl a 5 +% (Int32.logxor b (Int32.logxor c d)) +% e +% w1 +% 0xCA62C1D6l in
  let b = rotl b 30 in
  let w2 = rotl (Int32.logxor (Int32.logxor w15 w10) (Int32.logxor w4 w2)) 1 in
  let d = rotl e 5 +% (Int32.logxor a (Int32.logxor b c)) +% d +% w2 +% 0xCA62C1D6l in
  let a = rotl a 30 in
  let w3 = rotl (Int32.logxor (Int32.logxor w0 w11) (Int32.logxor w5 w3)) 1 in
  let c = rotl d 5 +% (Int32.logxor e (Int32.logxor a b)) +% c +% w3 +% 0xCA62C1D6l in
  let e = rotl e 30 in
  let w4 = rotl (Int32.logxor (Int32.logxor w1 w12) (Int32.logxor w6 w4)) 1 in
  let b = rotl c 5 +% (Int32.logxor d (Int32.logxor e a)) +% b +% w4 +% 0xCA62C1D6l in
  let d = rotl d 30 in
  let w5 = rotl (Int32.logxor (Int32.logxor w2 w13) (Int32.logxor w7 w5)) 1 in
  let a = rotl b 5 +% (Int32.logxor c (Int32.logxor d e)) +% a +% w5 +% 0xCA62C1D6l in
  let c = rotl c 30 in
  let w6 = rotl (Int32.logxor (Int32.logxor w3 w14) (Int32.logxor w8 w6)) 1 in
  let e = rotl a 5 +% (Int32.logxor b (Int32.logxor c d)) +% e +% w6 +% 0xCA62C1D6l in
  let b = rotl b 30 in
  let w7 = rotl (Int32.logxor (Int32.logxor w4 w15) (Int32.logxor w9 w7)) 1 in
  let d = rotl e 5 +% (Int32.logxor a (Int32.logxor b c)) +% d +% w7 +% 0xCA62C1D6l in
  let a = rotl a 30 in
  let w8 = rotl (Int32.logxor (Int32.logxor w5 w0) (Int32.logxor w10 w8)) 1 in
  let c = rotl d 5 +% (Int32.logxor e (Int32.logxor a b)) +% c +% w8 +% 0xCA62C1D6l in
  let e = rotl e 30 in
  let w9 = rotl (Int32.logxor (Int32.logxor w6 w1) (Int32.logxor w11 w9)) 1 in
  let b = rotl c 5 +% (Int32.logxor d (Int32.logxor e a)) +% b +% w9 +% 0xCA62C1D6l in
  let d = rotl d 30 in
  let w10 = rotl (Int32.logxor (Int32.logxor w7 w2) (Int32.logxor w12 w10)) 1 in
  let a = rotl b 5 +% (Int32.logxor c (Int32.logxor d e)) +% a +% w10 +% 0xCA62C1D6l in
  let c = rotl c 30 in
  let w11 = rotl (Int32.logxor (Int32.logxor w8 w3) (Int32.logxor w13 w11)) 1 in
  let e = rotl a 5 +% (Int32.logxor b (Int32.logxor c d)) +% e +% w11 +% 0xCA62C1D6l in
  let b = rotl b 30 in
  let w12 = rotl (Int32.logxor (Int32.logxor w9 w4) (Int32.logxor w14 w12)) 1 in
  let d = rotl e 5 +% (Int32.logxor a (Int32.logxor b c)) +% d +% w12 +% 0xCA62C1D6l in
  let a = rotl a 30 in
  let w13 = rotl (Int32.logxor (Int32.logxor w10 w5) (Int32.logxor w15 w13)) 1 in
  let c = rotl d 5 +% (Int32.logxor e (Int32.logxor a b)) +% c +% w13 +% 0xCA62C1D6l in
  let e = rotl e 30 in
  let w14 = rotl (Int32.logxor (Int32.logxor w11 w6) (Int32.logxor w0 w14)) 1 in
  let b = rotl c 5 +% (Int32.logxor d (Int32.logxor e a)) +% b +% w14 +% 0xCA62C1D6l in
  let d = rotl d 30 in
  let w15 = rotl (Int32.logxor (Int32.logxor w12 w7) (Int32.logxor w1 w15)) 1 in
  let a = rotl b 5 +% (Int32.logxor c (Int32.logxor d e)) +% a +% w15 +% 0xCA62C1D6l in
  let c = rotl c 30 in
  st.h0 <- (st.h0 + to_u32 a) land mask32;
  st.h1 <- (st.h1 + to_u32 b) land mask32;
  st.h2 <- (st.h2 + to_u32 c) land mask32;
  st.h3 <- (st.h3 + to_u32 d) land mask32;
  st.h4 <- (st.h4 + to_u32 e) land mask32

(* Hash [len] bytes of [buf] at [off] with no staging copy beyond the
   unavoidable partial-block carry. *)
let feed_bytes (c : ctx) (buf : Bytes.t) ~(off : int) ~(len : int) : unit =
  if off < 0 || len < 0 || off + len > Bytes.length buf then invalid_arg "Sha1.feed_bytes";
  c.length <- c.length + len;
  let pos = ref off in
  let stop = off + len in
  (* Fill a partial block first. *)
  if c.used > 0 then begin
    let take = min len (64 - c.used) in
    Bytes.blit buf !pos c.block c.used take;
    c.used <- c.used + take;
    pos := !pos + take;
    if c.used = 64 then begin
      compress c c.block 0;
      c.used <- 0
    end
  end;
  (* Whole blocks straight from the input. *)
  while stop - !pos >= 64 do
    compress c buf !pos;
    pos := !pos + 64
  done;
  if !pos < stop then begin
    Bytes.blit buf !pos c.block c.used (stop - !pos);
    c.used <- c.used + (stop - !pos)
  end

let update (c : ctx) (s : string) =
  (* The buffer is only read, so the unsafe view is sound. *)
  feed_bytes c (Bytes.unsafe_of_string s) ~off:0 ~len:(String.length s)

(* Pad, length-terminate and write the 20-byte digest at [off]. *)
let digest_into (c : ctx) (out : Bytes.t) ~(off : int) : unit =
  if off < 0 || off + 20 > Bytes.length out then invalid_arg "Sha1.digest_into";
  let bitlen = c.length lsl 3 in
  (* Append 0x80, pad with zeros to 56 mod 64, append 64-bit length. *)
  Bytes.set c.block c.used '\x80';
  c.used <- c.used + 1;
  if c.used > 56 then begin
    Bytes.fill c.block c.used (64 - c.used) '\000';
    compress c c.block 0;
    c.used <- 0
  end;
  Bytes.fill c.block c.used (56 - c.used) '\000';
  Sfs_util.Bytesutil.put_be32 c.block ~off:56 ((bitlen lsr 32) land mask32);
  Sfs_util.Bytesutil.put_be32 c.block ~off:60 (bitlen land mask32);
  compress c c.block 0;
  Sfs_util.Bytesutil.put_be32 out ~off c.h0;
  Sfs_util.Bytesutil.put_be32 out ~off:(off + 4) c.h1;
  Sfs_util.Bytesutil.put_be32 out ~off:(off + 8) c.h2;
  Sfs_util.Bytesutil.put_be32 out ~off:(off + 12) c.h3;
  Sfs_util.Bytesutil.put_be32 out ~off:(off + 16) c.h4

let final (c : ctx) : string =
  let out = Bytes.create 20 in
  digest_into c out ~off:0;
  Bytes.unsafe_to_string out

let digest (s : string) : string =
  let c = init () in
  update c s;
  final c

let digest_sub (s : string) ~(off : int) ~(len : int) : string =
  let c = init () in
  feed_bytes c (Bytes.unsafe_of_string s) ~off ~len;
  final c

let digest_list (parts : string list) : string =
  let c = init () in
  List.iter (update c) parts;
  final c

let digest_size = 20
