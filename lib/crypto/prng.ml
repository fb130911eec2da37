(* Pseudo-random generator in the style of DSS (FIPS 186, appendix 3).

   The paper (section 3.1.3) picks this design "both because it is based
   on SHA-1 and because it cannot be run backwards in the event that its
   state gets compromised": each output is

       x_j  = G(XKEY_j)
       XKEY_{j+1} = (1 + XKEY_j + x_j) mod 2^512

   Seeding hashes a list of entropy sources through a SHA-1-based hash
   into a 512-bit seed.  In the real system the sources are external
   programs, /dev/random, a saved seed file and keystroke timings; in
   this simulated deployment callers pass whatever strings they have
   (the OS layer provides scheduling jitter), and a convenience seeder
   mixes wall-clock and self-init randomness. *)

open Sfs_bignum

(* XKEY is a 64-byte big-endian buffer, hashed by one reused SHA-1
   context into [pool], the last 20-byte output; [pool_used] of it has
   been handed out (20 when it is spent).  A step allocates nothing. *)
type t = { xkey : Bytes.t; ctx : Sha1.ctx; pool : Bytes.t; mutable pool_used : int }

let state_bytes = 64 (* 512 bits *)
let step_bytes = Sha1.digest_size

(* SHA-1-based expansion of arbitrary entropy into 512 bits. *)
let condense (sources : string list) : string =
  let base = Sha1.digest_list ("sfs-prng-seed" :: sources) in
  String.concat ""
    (List.map
       (fun i -> Sha1.digest_list [ base; String.make 1 (Char.chr i) ])
       [ 0; 1; 2; 3 ])
  |> fun s -> String.sub s 0 state_bytes (* sfslint: allow SL009 — one-time seeding, not a generator step *)

let create (sources : string list) : t =
  {
    xkey = Bytes.of_string (condense sources);
    ctx = Sha1.init ();
    pool = Bytes.create step_bytes;
    pool_used = step_bytes;
  }

let add_entropy (t : t) (source : string) : unit =
  Bytes.blit_string (condense [ Bytes.to_string t.xkey; source ]) 0 t.xkey 0 state_bytes

(* One generator step: x = G(XKEY) into [pool], then
   XKEY ← 1 + XKEY + x mod 2^512 as a byte-wise carry from the low end
   (x is the low 20 bytes of the addend), dropping the carry out. *)
let step (t : t) : unit =
  Sha1.reset t.ctx;
  Sha1.feed_bytes t.ctx t.xkey ~off:0 ~len:state_bytes;
  Sha1.digest_into t.ctx t.pool ~off:0;
  let carry = ref 1 in
  for i = 1 to state_bytes do
    let x = if i <= step_bytes then Bytes.get_uint8 t.pool (step_bytes - i) else 0 in
    let v = Bytes.get_uint8 t.xkey (state_bytes - i) + x + !carry in
    Bytes.set_uint8 t.xkey (state_bytes - i) (v land 0xff);
    carry := v lsr 8
  done;
  t.pool_used <- 0

(* Fills [buf] from the pool, stepping whenever it runs dry. *)
let fill (t : t) (buf : Bytes.t) : unit =
  let n = Bytes.length buf in
  let filled = ref 0 in
  while !filled < n do
    if t.pool_used = step_bytes then step t;
    let take = min (step_bytes - t.pool_used) (n - !filled) in
    Bytes.blit t.pool t.pool_used buf !filled take;
    t.pool_used <- t.pool_used + take;
    filled := !filled + take
  done

let random_bytes (t : t) (n : int) : string =
  if n < 0 then invalid_arg "Prng.random_bytes";
  let buf = Bytes.create n in
  fill t buf;
  Bytes.unsafe_to_string buf

(* ceil(bits/8) bytes with the surplus high bits of the first masked
   off: the value is below 2^bits. *)
let random_nat (t : t) ~(bits : int) : Nat.t =
  if bits <= 0 then Nat.zero
  else begin
    let buf = Bytes.create ((bits + 7) / 8) in
    fill t buf;
    if bits land 7 <> 0 then Bytes.set_uint8 buf 0 (Bytes.get_uint8 buf 0 land ((1 lsl (bits land 7)) - 1));
    Nat.of_bytes_be (Bytes.unsafe_to_string buf)
  end

(* Uniform value in [0, bound). *)
let random_below (t : t) ~(bound : Nat.t) : Nat.t =
  if Nat.is_zero bound then invalid_arg "Prng.random_below: zero bound";
  let bits = Nat.num_bits bound in
  let rec draw () =
    let v = random_nat t ~bits in
    if Nat.compare v bound < 0 then v else draw ()
  in
  draw ()

(* [random_below] on native ints: the same draws (ceil(bits/8) bytes,
   masked to bits, rejected at or above the bound), read from the pool
   byte by byte. *)
let random_int (t : t) (bound : int) : int =
  if bound <= 0 then invalid_arg "Prng.random_int";
  let bits = ref 0 in
  while bound lsr !bits <> 0 do incr bits done;
  let mask = (1 lsl !bits) - 1 in
  let v = ref bound in
  while !v >= bound do
    v := 0;
    for _ = 1 to (!bits + 7) / 8 do
      if t.pool_used = step_bytes then step t;
      v := (!v lsl 8) lor Bytes.get_uint8 t.pool t.pool_used;
      t.pool_used <- t.pool_used + 1
    done;
    v := !v land mask
  done;
  !v

(* Explicit deterministic seeding: the path simulations and tests are
   expected to take.  Same seed, same byte stream, every run. *)
let of_seed (seed : string) : t = create [ "sfs-prng-of-seed"; seed ]

(* OS-entropy fallback for non-reproducible uses (key generation in
   the demo binaries).  This is the only place outside the simulation
   clock that may observe ambient randomness or time; everything else
   must go through [create]/[of_seed] so protocol runs replay exactly.
   Stdlib.Random is permitted in this file by SL002's definition. *)
let global : t Lazy.t =
  lazy
    (let self = Random.State.make_self_init () in
     let noise = String.init 64 (fun _ -> Char.chr (Random.State.int self 256)) in (* sfslint: allow SL009 — one-time OS-entropy seeding, not the wire path *)
     (* sfslint: allow SL003 — OS-entropy seeding for demo binaries only; simulations use of_seed *)
     create [ noise; string_of_float (Sys.time ()) ])

let default () = Lazy.force global
