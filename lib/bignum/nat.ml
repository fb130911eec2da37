(* Arbitrary-precision natural numbers.

   Representation: little-endian arrays of 26-bit limbs (base 2^26),
   normalized so the highest limb is nonzero; zero is the empty array.
   With 63-bit native ints, a limb product fits in 52 bits and a
   schoolbook accumulation of up to 2^10 products stays below 2^62,
   comfortably covering the 2048-bit operands SFS uses. *)

let limb_bits = 26
let limb_base = 1 lsl limb_bits
let limb_mask = limb_base - 1

type t = int array

let zero : t = [||]
let is_zero (a : t) = Array.length a = 0

let normalize (a : int array) : t =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do decr n done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_int (v : int) : t =
  if v < 0 then invalid_arg "Nat.of_int: negative";
  let rec go v acc = if v = 0 then List.rev acc else go (v lsr limb_bits) ((v land limb_mask) :: acc) in
  Array.of_list (go v [])

let to_int_opt (a : t) : int option =
  (* Fits when below 2^62 (two full limbs plus 10 bits). *)
  let n = Array.length a in
  if n > 3 then None
  else if n = 3 && a.(2) >= 1 lsl (62 - (2 * limb_bits)) then None
  else begin
    let v = ref 0 in
    for i = n - 1 downto 0 do v := (!v lsl limb_bits) lor a.(i) done;
    Some !v
  end

let one = of_int 1
let two = of_int 2

let compare (a : t) (b : t) : int =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i) else go (i - 1) in
    go (la - 1)

let equal a b = compare a b = 0

let num_bits (a : t) : int =
  let n = Array.length a in
  if n = 0 then 0
  else
    let top = a.(n - 1) in
    let rec width v acc = if v = 0 then acc else width (v lsr 1) (acc + 1) in
    ((n - 1) * limb_bits) + width top 0

let testbit (a : t) (i : int) : bool =
  let limb = i / limb_bits and off = i mod limb_bits in
  limb < Array.length a && (a.(limb) lsr off) land 1 = 1

(* Normalized operands give a normalized sum: the longer operand's top
   limb is nonzero, so only a carry out of it adds a limb, and the
   common case allocates the result once. *)
let add (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  let n = max la lb in
  let out = Array.make n 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    out.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  if !carry = 0 then out else Array.append out [| !carry |]

(* a + v for a native v >= 0: like [add], one allocation unless the
   carry leaves the top limb, and [a] itself when v = 0. *)
let add_int (a : t) (v : int) : t =
  if v < 0 then invalid_arg "Nat.add_int: negative";
  if v = 0 then a
  else begin
    let la = Array.length a in
    let rec limbs v acc = if v = 0 then acc else limbs (v lsr limb_bits) (acc + 1) in
    let out = Array.make (max la (limbs v 0)) 0 in
    Array.blit a 0 out 0 la;
    let carry = ref v and i = ref 0 in
    while !carry <> 0 && !i < Array.length out do
      let s = out.(!i) + (!carry land limb_mask) in
      out.(!i) <- s land limb_mask;
      carry := (!carry lsr limb_bits) + (s lsr limb_bits);
      incr i
    done;
    if !carry = 0 then out else Array.append out [| !carry |]
  end

(* [a] with bit [i] set: [a] itself when it already is, else one copy. *)
let set_bit (a : t) (i : int) : t =
  if i < 0 then invalid_arg "Nat.set_bit";
  if testbit a i then a
  else begin
    let limb = i / limb_bits in
    let out = Array.make (max (Array.length a) (limb + 1)) 0 in
    Array.blit a 0 out 0 (Array.length a);
    out.(limb) <- out.(limb) lor (1 lsl (i mod limb_bits));
    out
  end

(* [sub a b] requires a >= b. *)
let sub (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la < lb then invalid_arg "Nat.sub: underflow";
  let out = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin
      out.(i) <- d + limb_base;
      borrow := 1
    end
    else begin
      out.(i) <- d;
      borrow := 0
    end
  done;
  if !borrow <> 0 then invalid_arg "Nat.sub: underflow";
  normalize out

let mul_schoolbook (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let out = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        let v = out.(i + j) + (ai * b.(j)) + !carry in
        out.(i + j) <- v land limb_mask;
        carry := v lsr limb_bits
      done;
      (* Propagate the final carry; it may ripple. *)
      let k = ref (i + lb) in
      while !carry <> 0 do
        let v = out.(!k) + !carry in
        out.(!k) <- v land limb_mask;
        carry := v lsr limb_bits;
        incr k
      done
    done;
    normalize out
  end

(* Karatsuba multiplication for large operands. *)
let karatsuba_threshold = 32

let split_at (a : t) (k : int) : t * t =
  let n = Array.length a in
  if n <= k then (a, zero)
  else (normalize (Array.sub a 0 k), normalize (Array.sub a k (n - k)))

let shift_limbs (a : t) (k : int) : t =
  if is_zero a then zero
  else begin
    let n = Array.length a in
    let out = Array.make (n + k) 0 in
    Array.blit a 0 out k n;
    out
  end

let rec mul (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la < karatsuba_threshold || lb < karatsuba_threshold then mul_schoolbook a b
  else begin
    let k = (max la lb + 1) / 2 in
    let a0, a1 = split_at a k and b0, b1 = split_at b k in
    let z0 = mul a0 b0 in
    let z2 = mul a1 b1 in
    let z1 = sub (mul (add a0 a1) (add b0 b1)) (add z0 z2) in
    add (add z0 (shift_limbs z1 k)) (shift_limbs z2 (2 * k))
  end

let shift_left (a : t) (bits : int) : t =
  if bits < 0 then invalid_arg "Nat.shift_left";
  if is_zero a || bits = 0 then a
  else begin
    let limbs = bits / limb_bits and off = bits mod limb_bits in
    let n = Array.length a in
    let out = Array.make (n + limbs + 1) 0 in
    for i = 0 to n - 1 do
      let v = a.(i) lsl off in
      out.(i + limbs) <- out.(i + limbs) lor (v land limb_mask);
      out.(i + limbs + 1) <- v lsr limb_bits
    done;
    normalize out
  end

let shift_right (a : t) (bits : int) : t =
  if bits < 0 then invalid_arg "Nat.shift_right";
  if is_zero a || bits = 0 then a
  else begin
    let limbs = bits / limb_bits and off = bits mod limb_bits in
    let n = Array.length a in
    if limbs >= n then zero
    else begin
      let m = n - limbs in
      let out = Array.make m 0 in
      for i = 0 to m - 1 do
        let lo = a.(i + limbs) lsr off in
        let hi = if i + limbs + 1 < n && off > 0 then (a.(i + limbs + 1) lsl (limb_bits - off)) land limb_mask else 0 in
        out.(i) <- lo lor hi
      done;
      normalize out
    end
  end

(* Left shift by [bits] < limb_bits into [dst]; a carry out of the top
   limb lands one limb past it, where [dst] must then have room. *)
let shift_left_into (src : t) (bits : int) (dst : int array) : unit =
  let carry = ref 0 in
  for i = 0 to Array.length src - 1 do
    let x = (src.(i) lsl bits) lor !carry in
    dst.(i) <- x land limb_mask;
    carry := x lsr limb_bits
  done;
  if !carry <> 0 then dst.(Array.length src) <- !carry

(* x[0 .. n) ← x[0 .. n) >> s; returns the new normalized length. *)
let shift_right_in_place (x : int array) (n : int) (s : int) : int =
  let limbs = s / limb_bits and off = s mod limb_bits in
  let m = n - limbs in
  for i = 0 to m - 1 do
    let hi = if i + limbs + 1 < n then (x.(i + limbs + 1) lsl (limb_bits - off)) land limb_mask else 0 in
    x.(i) <- (x.(i + limbs) lsr off) lor hi
  done;
  let m = ref m in
  while !m > 0 && x.(!m - 1) = 0 do decr m done;
  !m

(* Knuth's algorithm D (TAOCP vol. 2, §4.3.1), in place on one normalized
   copy of each operand.  Shifting both so the divisor's top limb has its
   high bit set makes the estimate q̂ = ⌊(u_top·base + u_next) / v_top⌋
   at most two too large; refining it against the divisor's top two
   limbs leaves it at most one too large, and that rare case is undone
   by a single add-back after the multiply-subtract. *)
let divmod (a : t) (b : t) : t * t =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else if Array.length b = 1 then begin
    (* Single-limb divisor: simple scan. *)
    let d = b.(0) in
    let n = Array.length a in
    let q = Array.make n 0 in
    let r = ref 0 in
    for i = n - 1 downto 0 do
      let cur = (!r lsl limb_bits) lor a.(i) in
      q.(i) <- cur / d;
      r := cur mod d
    done;
    (normalize q, of_int !r)
  end
  else begin
    let na = Array.length a and nb = Array.length b in
    let shift = limb_bits - (num_bits b - ((nb - 1) * limb_bits)) in
    let u = Array.make (na + 1) 0 and v = Array.make nb 0 in
    shift_left_into a shift u;
    shift_left_into b shift v;
    let vtop = v.(nb - 1) and vnext = v.(nb - 2) in
    let q = Array.make (na - nb + 1) 0 in
    for j = na - nb downto 0 do
      let num = (u.(j + nb) lsl limb_bits) lor u.(j + nb - 1) in
      let qhat = ref (num / vtop) and rhat = ref (num mod vtop) in
      while
        !rhat < limb_base
        && (!qhat > limb_mask || !qhat * vnext > (!rhat lsl limb_bits) lor u.(j + nb - 2))
      do
        decr qhat;
        rhat := !rhat + vtop
      done;
      (* u[j .. j+nb] -= q̂·v *)
      let carry = ref 0 and borrow = ref 0 in
      for i = 0 to nb - 1 do
        let p = (!qhat * v.(i)) + !carry in
        carry := p lsr limb_bits;
        let d = u.(i + j) - (p land limb_mask) - !borrow in
        u.(i + j) <- d land limb_mask;
        borrow := if d < 0 then 1 else 0
      done;
      let d = u.(j + nb) - !carry - !borrow in
      if d >= 0 then u.(j + nb) <- d
      else begin
        (* q̂ was one too large: add v back; the carry out of the top
           limb cancels the borrow. *)
        decr qhat;
        let c = ref 0 in
        for i = 0 to nb - 1 do
          let s = u.(i + j) + v.(i) + !c in
          u.(i + j) <- s land limb_mask;
          c := s lsr limb_bits
        done;
        u.(j + nb) <- (d + !c) land limb_mask
      end;
      q.(j) <- !qhat
    done;
    (* The remainder is u[0 .. nb-1], still shifted. *)
    let nr = shift_right_in_place u nb shift in
    (normalize q, Array.sub u 0 nr)
  end

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

(* [r·base + limb] stays below 2^62 while r < 2^36. *)
let rem_int_limit = 1 lsl 36

let rem_int (a : t) (d : int) : int =
  if d = 0 then raise Division_by_zero;
  if d < 0 || d > rem_int_limit then invalid_arg "Nat.rem_int";
  let r = ref 0 in
  for i = Array.length a - 1 downto 0 do
    r := ((!r lsl limb_bits) lor a.(i)) mod d
  done;
  !r

(* Right-to-left binary exponentiation with a full division per step.
   Kept as the oracle the Montgomery path is equivalence-tested against,
   and as the fallback for even moduli (where no Montgomery R⁻¹ exists). *)
let modexp_reference ~(base : t) ~(exp : t) ~(modulus : t) : t =
  if is_zero modulus then raise Division_by_zero;
  if equal modulus one then zero
  else begin
    let result = ref one in
    let b = ref (rem base modulus) in
    let nb = num_bits exp in
    for i = 0 to nb - 1 do
      if testbit exp i then result := rem (mul !result !b) modulus;
      if i < nb - 1 then b := rem (mul !b !b) modulus
    done;
    !result
  end

(* --- Binary gcd, in place ---
   The helpers work on a limb buffer and an explicit length, so the
   loop below runs on two private copies without allocating. *)

(* Trailing zero bits of a nonzero buffer. *)
let trailing_zeros (x : int array) : int =
  let i = ref 0 in
  while x.(!i) = 0 do incr i done;
  let v = ref x.(!i) and z = ref (!i * limb_bits) in
  while !v land 1 = 0 do
    v := !v lsr 1;
    incr z
  done;
  !z

(* x[0 .. nx) ← x - y for x >= y; returns the new normalized length. *)
let sub_in_place (x : int array) (nx : int) (y : int array) (ny : int) : int =
  let borrow = ref 0 in
  for i = 0 to nx - 1 do
    let d = x.(i) - (if i < ny then y.(i) else 0) - !borrow in
    x.(i) <- d land limb_mask;
    borrow := if d < 0 then 1 else 0
  done;
  let n = ref nx in
  while !n > 0 && x.(!n - 1) = 0 do decr n done;
  !n

(* x[0 .. nx) < y[0 .. ny), both normalized. *)
let less_in_place (x : int array) (nx : int) (y : int array) (ny : int) : bool =
  if nx <> ny then nx < ny
  else begin
    let i = ref (nx - 1) in
    while !i >= 0 && x.(!i) = y.(!i) do decr i done;
    !i >= 0 && x.(!i) < y.(!i)
  end

(* Stein's algorithm: strip the common power of two, then, with both
   values odd, subtract the smaller from the larger and shift the
   zeros out of the difference until it vanishes. *)
let gcd (a : t) (b : t) : t =
  if is_zero a then b
  else if is_zero b then a
  else begin
    let za = trailing_zeros a and zb = trailing_zeros b in
    let u = ref (Array.copy a) and v = ref (Array.copy b) in
    let nu = ref (shift_right_in_place !u (Array.length a) za) in
    let nv = ref (shift_right_in_place !v (Array.length b) zb) in
    while !nv > 0 do
      if less_in_place !v !nv !u !nu then begin
        let x = !u and nx = !nu in
        u := !v;
        nu := !nv;
        v := x;
        nv := nx
      end;
      nv := sub_in_place !v !nv !u !nu;
      if !nv > 0 then nv := shift_right_in_place !v !nv (trailing_zeros !v)
    done;
    shift_left (Array.sub !u 0 !nu) (min za zb)
  end

(* Binary Jacobi symbol: the [gcd] loop with the sign tracked.  Each
   two stripped from a flips it when n ≡ 3, 5 (mod 8); swapping odd a
   and n flips it when both are 3 (mod 4); (a/n) = ((a - n)/n).  The
   loop ends with n = gcd(a, n), so the symbol is 0 unless n = 1. *)
let jacobi (a : t) (n : t) : int =
  if not (testbit n 0) then invalid_arg "Nat.jacobi: even modulus";
  let u = ref (Array.copy a) and v = ref (Array.copy n) in
  let nu = ref (Array.length a) and nv = ref (Array.length n) in
  let s = ref 1 in
  while !nu > 0 do
    let z = trailing_zeros !u in
    nu := shift_right_in_place !u !nu z;
    let n8 = !v.(0) land 7 in
    if z land 1 = 1 && (n8 = 3 || n8 = 5) then s := - !s;
    if less_in_place !u !nu !v !nv then begin
      if !u.(0) land 3 = 3 && n8 land 3 = 3 then s := - !s;
      let x = !u and nx = !nu in
      u := !v;
      nu := !nv;
      v := x;
      nv := nx
    end;
    nu := sub_in_place !u !nu !v !nv
  done;
  if !nv = 1 && !v.(0) = 1 then !s else 0

(* --- Montgomery arithmetic (DESIGN.md §14) ---

   For an odd k-limb modulus m and R = 2^(26k), the Montgomery form of a
   is a·R mod m, and a Montgomery product of two such values is
   a·b·R mod m.  CIOS (coarsely integrated operand scanning) interleaves
   multiplication and reduction one limb of a at a time: add a_i·b to a
   (k+2)-limb accumulator t, add u·m with u = t_0·m' mod 2^26 so the low
   limb becomes zero, and shift t down one limb.  Only the one-limb
   m' = -m⁻¹ mod 2^26 is needed, and every operand is a fixed-width
   k-limb buffer.  A context ([mont]) holds m', R mod m, R² mod m and
   the buffers; [modexp] builds one per call and the Miller-Rabin rounds
   of one prime candidate share one. *)

(* -m0⁻¹ mod 2^26 for odd m0.  x = m0 is already an inverse mod 2^3
   (odd squares are 1 mod 8), and each Newton step x ← x·(2 - m0·x)
   doubles the valid bits: 3 → 6 → 12 → 24 → 48.  Products wrap mod
   2^63, which the final mask makes harmless. *)
let neg_inv_limb (m0 : int) : int =
  let x = ref m0 in
  for _ = 1 to 4 do
    x := !x * (2 - (m0 * !x)) land limb_mask
  done;
  (limb_base - !x) land limb_mask

(* dst ← x - m when x >= m, else x, for x = carry·R + x[0 .. k) < 2m;
   a carry out of the top limb cancels the final borrow.  [dst] may be
   [x]. *)
let reduce_once ~(m : t) ~(carry : int) (x : int array) (dst : int array) : unit =
  let k = Array.length m in
  let i = ref (k - 1) in
  while !i >= 0 && x.(!i) = m.(!i) do decr i done;
  if carry <> 0 || !i < 0 || x.(!i) > m.(!i) then begin
    let borrow = ref 0 in
    for j = 0 to k - 1 do
      let d = x.(j) - m.(j) - !borrow in
      dst.(j) <- d land limb_mask;
      borrow := if d < 0 then 1 else 0
    done
  end
  else if x != dst then Array.blit x 0 dst 0 k

(* out ← a·b·R⁻¹ mod m, for k-limb a < R and b < m (the result is below
   2m before its one conditional subtraction, so a need not be reduced).
   [t] is k+2 limbs of scratch.  [out] may be [a] or [b]: it is written
   only after the last read of either, which is what lets the ladder
   below square in place.  Every caller sizes its buffers from k, so the
   two inner loops skip bounds checks (a third of the run time). *)
let mont_mul ~(m : t) ~(m' : int) ~(t : int array) (a : int array) (b : int array) (out : int array) :
    unit =
  let k = Array.length m in
  Array.fill t 0 (k + 2) 0;
  for i = 0 to k - 1 do
    let ai = a.(i) in
    let c = ref 0 in
    for j = 0 to k - 1 do
      let v = Array.unsafe_get t j + (ai * Array.unsafe_get b j) + !c in
      Array.unsafe_set t j (v land limb_mask);
      c := v lsr limb_bits
    done;
    let v = t.(k) + !c in
    t.(k) <- v land limb_mask;
    t.(k + 1) <- v lsr limb_bits;
    let u = t.(0) * m' land limb_mask in
    let c = ref ((t.(0) + (u * m.(0))) lsr limb_bits) in
    for j = 1 to k - 1 do
      let v = Array.unsafe_get t j + (u * Array.unsafe_get m j) + !c in
      Array.unsafe_set t (j - 1) (v land limb_mask);
      c := v lsr limb_bits
    done;
    let v = t.(k) + !c in
    t.(k - 1) <- v land limb_mask;
    t.(k) <- t.(k + 1) + (v lsr limb_bits)
  done;
  reduce_once ~m ~carry:t.(k) t out

(* Sliding-window width by exponent size: 4 covers SRP's 512-bit group,
   5 the 1024-bit-plus Rabin keys; tiny exponents stay binary. *)
let window_bits (nb : int) : int =
  if nb <= 24 then 1 else if nb <= 96 then 3 else if nb <= 768 then 4 else 5

type mont = {
  mutable m : t;
  mutable m' : int;
  r1 : int array; (* R mod m: 1 in Montgomery form *)
  rm1 : int array; (* m - R mod m: m - 1 in Montgomery form *)
  r2 : int array; (* R² mod m: one product by it enters Montgomery form *)
  t : int array; (* k+2 limbs of product scratch *)
  acc : int array; (* the value [mont_pow] sets and [mont_square] squares *)
  sq : int array; (* base² while the window table fills; 1 on the way out *)
  mutable odd : int array array; (* odd powers of the base, grown on demand *)
}

(* x ← 2x mod m for a k-limb x < m (k = limbs of m), in place. *)
let double_mod (x : int array) (m : t) : unit =
  let c = ref 0 in
  for j = 0 to Array.length m - 1 do
    let v = (x.(j) lsl 1) lor !c in
    x.(j) <- v land limb_mask;
    c := v lsr limb_bits
  done;
  reduce_once ~m ~carry:!c x x

(* Points [c] at the odd modulus m of its limb count: m', then R mod m
   by doubling 2^(bits(m) - 1) up to 2^(26k), then R² mod m, the
   Montgomery form of 2^(26k), by square-and-double from the Montgomery
   form of 1 along the bits of 26k.  No division and no allocation. *)
let target (c : mont) (m : t) : unit =
  if not (testbit m 0) || equal m one then invalid_arg "Nat.mont: even modulus or 1";
  let k = Array.length m in
  c.m <- m;
  c.m' <- neg_inv_limb m.(0);
  let { m'; t; r1; r2; _ } = c in
  let nb = num_bits m in
  Array.fill r1 0 k 0;
  r1.((nb - 1) / limb_bits) <- 1 lsl ((nb - 1) mod limb_bits);
  for _ = nb to k * limb_bits do
    double_mod r1 m
  done;
  Array.blit r1 0 r2 0 k;
  let e = k * limb_bits in
  for i = num_bits (of_int e) - 1 downto 0 do
    mont_mul ~m ~m' ~t r2 r2 r2;
    if (e lsr i) land 1 = 1 then double_mod r2 m
  done;
  Array.blit m 0 c.rm1 0 k;
  ignore (sub_in_place c.rm1 k r1 k)

let mont (m : t) : mont =
  let k = Array.length m in
  let buf () = Array.make k 0 in
  let c =
    { m; m' = 0; r1 = buf (); rm1 = buf (); r2 = buf (); t = Array.make (k + 2) 0; acc = buf (); sq = buf (); odd = [||] }
  in
  target c m;
  c

let mont_for (prev : mont option) (m : t) : mont =
  match prev with
  | Some c when Array.length c.m = Array.length m ->
      target c m;
      c
  | _ -> mont m

(* acc ← base^exp in Montgomery form: a sliding window over the odd
   powers of the base, the top window seeding [acc] directly. *)
let mont_pow (c : mont) ~(base : t) ~(exp : t) : unit =
  let { m; m'; t; acc; _ } = c in
  let k = Array.length m in
  if is_zero exp then Array.blit c.r1 0 acc 0 k
  else begin
    let w = window_bits (num_bits exp) in
    if Array.length c.odd < 1 lsl (w - 1) then
      c.odd <- Array.init (1 lsl (w - 1)) (fun _ -> Array.make k 0);
    let odd = c.odd in
    (* base·R mod m: a base of at most k limbs times R² mod m. *)
    let b = if Array.length base > k then rem base m else base in
    Array.fill acc 0 k 0;
    Array.blit b 0 acc 0 (Array.length b);
    mont_mul ~m ~m' ~t acc c.r2 odd.(0);
    if w > 1 then begin
      mont_mul ~m ~m' ~t odd.(0) odd.(0) c.sq;
      for i = 1 to (1 lsl (w - 1)) - 1 do
        mont_mul ~m ~m' ~t odd.(i - 1) c.sq odd.(i)
      done
    end;
    let seeded = ref false in
    let i = ref (num_bits exp - 1) in
    while !i >= 0 do
      if not (testbit exp !i) then begin
        mont_mul ~m ~m' ~t acc acc acc;
        decr i
      end
      else begin
        (* Longest window ending in a set bit, at most w bits. *)
        let l = ref (max 0 (!i - w + 1)) in
        while not (testbit exp !l) do incr l done;
        let v = ref 0 in
        for b = !i downto !l do
          v := (!v lsl 1) lor (if testbit exp b then 1 else 0)
        done;
        if !seeded then begin
          for _ = !l to !i do
            mont_mul ~m ~m' ~t acc acc acc
          done;
          mont_mul ~m ~m' ~t acc odd.(!v lsr 1) acc
        end
        else begin
          Array.blit odd.(!v lsr 1) 0 acc 0 k;
          seeded := true
        end;
        i := !l - 1
      end
    done
  end

let mont_square (c : mont) : unit = mont_mul ~m:c.m ~m':c.m' ~t:c.t c.acc c.acc c.acc

let mont_unit (c : mont) : int = if c.acc = c.r1 then 1 else if c.acc = c.rm1 then -1 else 0

(* Out of Montgomery form: one more product, by 1, into [sq]; the
   result is copied out at its normalized length, so the context stays
   the caller's to reuse. *)
let mont_out (c : mont) : t =
  let k = Array.length c.m in
  Array.fill c.sq 0 k 0;
  c.sq.(0) <- 1;
  mont_mul ~m:c.m ~m':c.m' ~t:c.t c.acc c.sq c.sq;
  let n = ref k in
  while !n > 0 && c.sq.(!n - 1) = 0 do decr n done;
  Array.sub c.sq 0 !n

let modexp ~(base : t) ~(exp : t) ~(modulus : t) : t =
  if is_zero modulus then raise Division_by_zero;
  if equal modulus one then zero
  else if not (testbit modulus 0) then
    (* Even modulus: no R⁻¹ exists; take the reference path. *)
    modexp_reference ~base ~exp ~modulus
  else begin
    let c = mont modulus in
    mont_pow c ~base ~exp;
    mont_out c
  end

(* u[0 .. k] ← u[0 .. k) + q·m, for the k-limb m and a one-limb q. *)
let add_mul_in_place (u : int array) (m : t) (q : int) : unit =
  let k = Array.length m in
  let c = ref 0 in
  for j = 0 to k - 1 do
    let w = u.(j) + (q * m.(j)) + !c in
    u.(j) <- w land limb_mask;
    c := w lsr limb_bits
  done;
  u.(k) <- !c

(* Extended binary gcd for an odd modulus m > 1 and 0 < x < m: Stein's
   loop on a = x and b = m, each carrying a coefficient mod m
   (a ≡ u·x, b ≡ v·x) in a (k+1)-limb buffer.  Stripping z zeros from a
   divides u by 2^z, in steps of at most 25 bits: u + q·m with
   q = u·m' mod 2^z is divisible by 2^z and stays below m once divided.
   The loop ends with b = gcd(x, m), and then v is the inverse. *)
let inverse_odd (x : t) (m : t) : t option =
  let k = Array.length m in
  let m' = neg_inv_limb m.(0) in
  let a = ref (Array.make k 0) and b = ref (Array.copy m) in
  Array.blit x 0 !a 0 (Array.length x);
  let na = ref (Array.length x) and nb = ref k in
  let u = ref (Array.make (k + 1) 0) and v = ref (Array.make (k + 1) 0) in
  !u.(0) <- 1;
  while !na > 0 do
    let z = ref (trailing_zeros !a) in
    na := shift_right_in_place !a !na !z;
    while !z > 0 do
      let s = min !z (limb_bits - 1) in
      add_mul_in_place !u m (!u.(0) * m' land ((1 lsl s) - 1));
      ignore (shift_right_in_place !u (k + 1) s);
      z := !z - s
    done;
    if less_in_place !a !na !b !nb then begin
      let a0 = !a and na0 = !na and u0 = !u in
      a := !b;
      na := !nb;
      b := a0;
      nb := na0;
      u := !v;
      v := u0
    end;
    na := sub_in_place !a !na !b !nb;
    (* u ← u - v mod m, adding m first when u < v. *)
    if less_in_place !u k !v k then add_mul_in_place !u m 1;
    ignore (sub_in_place !u (k + 1) !v k)
  done;
  if !nb = 1 && !b.(0) = 1 then begin
    let n = ref k in
    while !n > 0 && !v.(!n - 1) = 0 do decr n done;
    Some (Array.sub !v 0 !n)
  end
  else None

let of_bytes_be (s : string) : t =
  let n = String.length s in
  let nbits = 8 * n in
  let limbs = (nbits + limb_bits - 1) / limb_bits in
  let out = Array.make (max limbs 1) 0 in
  let bitpos = ref 0 in
  for i = n - 1 downto 0 do
    let byte = Char.code s.[i] in
    let limb = !bitpos / limb_bits and off = !bitpos mod limb_bits in
    out.(limb) <- out.(limb) lor ((byte lsl off) land limb_mask);
    if off > limb_bits - 8 && limb + 1 < Array.length out then
      out.(limb + 1) <- out.(limb + 1) lor (byte lsr (limb_bits - off));
    bitpos := !bitpos + 8
  done;
  normalize out

(* The big-endian bytes of a, right-aligned in a fresh string of
   [width] >= its byte length, zero-filled on the left. *)
let bytes_be ~(width : int) (a : t) : string =
  let out = Bytes.make width '\000' in
  for byte = 0 to ((num_bits a + 7) / 8) - 1 do
    let bitpos = 8 * byte in
    let limb = bitpos / limb_bits and off = bitpos mod limb_bits in
    let v = a.(limb) lsr off in
    let v =
      if off > limb_bits - 8 && limb + 1 < Array.length a then
        v lor (a.(limb + 1) lsl (limb_bits - off))
      else v
    in
    Bytes.set out (width - 1 - byte) (Char.chr (v land 0xff))
  done;
  Bytes.unsafe_to_string out

let to_bytes_be (a : t) : string = if is_zero a then "" else bytes_be ~width:((num_bits a + 7) / 8) a

(* Fixed-width big-endian encoding, for protocol messages: one
   allocation. *)
let to_bytes_be_padded ~(width : int) (a : t) : string =
  if (num_bits a + 7) / 8 > width then invalid_arg "Nat.to_bytes_be_padded: too large";
  bytes_be ~width a

let of_hex (h : string) : t = of_bytes_be (Sfs_util.Hex.decode (if String.length h mod 2 = 1 then "0" ^ h else h))
let to_hex (a : t) : string =
  if is_zero a then "0"
  else
    let h = Sfs_util.Hex.encode (to_bytes_be a) in
    if h.[0] = '0' then String.sub h 1 (String.length h - 1) else h

(* Decimal conversion, for human-facing output and tests. *)
let to_string (a : t) : string =
  if is_zero a then "0"
  else begin
    let buf = Buffer.create 32 in
    let ten9 = of_int 1_000_000_000 in
    let rec go a digits =
      if is_zero a then digits
      else
        let q, r = divmod a ten9 in
        let r = match to_int_opt r with Some v -> v | None -> assert false in
        go q (r :: digits)
    in
    (match go a [] with
    | [] -> assert false
    | first :: rest ->
        Buffer.add_string buf (string_of_int first);
        List.iter (fun d -> Buffer.add_string buf (Printf.sprintf "%09d" d)) rest);
    Buffer.contents buf
  end

let of_string (s : string) : t =
  if s = "" then invalid_arg "Nat.of_string";
  let acc = ref zero in
  let ten = of_int 10 in
  String.iter
    (fun c ->
      match c with
      | '0' .. '9' -> acc := add (mul !acc ten) (of_int (Char.code c - Char.code '0'))
      | _ -> invalid_arg "Nat.of_string: bad digit")
    s;
  !acc
