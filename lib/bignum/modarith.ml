(* Modular arithmetic over naturals: inverses and the modular square
   roots Rabin decryption needs. *)

type sign = Pos | Neg

(* Extended gcd on naturals with explicit signs, iterative to avoid deep
   recursion on adversarial inputs.  Returns (g, s, sign_s) such that
   s*a = g (mod b) with the given sign. *)
let egcd (a : Nat.t) (b : Nat.t) : Nat.t * Nat.t * sign =
  let rec go r0 r1 s0 sg0 s1 sg1 =
    if Nat.is_zero r1 then (r0, s0, sg0)
    else begin
      let q, r2 = Nat.divmod r0 r1 in
      (* s2 = s0 - q*s1, tracking sign. *)
      let qs1 = Nat.mul q s1 in
      let s2, sg2 =
        match (sg0, sg1) with
        | Pos, Neg -> (Nat.add s0 qs1, Pos)
        | Neg, Pos -> (Nat.add s0 qs1, Neg)
        | Pos, Pos -> if Nat.compare s0 qs1 >= 0 then (Nat.sub s0 qs1, Pos) else (Nat.sub qs1 s0, Neg)
        | Neg, Neg -> if Nat.compare s0 qs1 >= 0 then (Nat.sub s0 qs1, Neg) else (Nat.sub qs1 s0, Pos)
      in
      go r1 r2 s1 sg1 s2 sg2
    end
  in
  go a b Nat.one Pos Nat.zero Pos

let inverse ~(x : Nat.t) ~(modulus : Nat.t) : Nat.t option =
  if Nat.is_zero modulus then raise Division_by_zero;
  let x = Nat.rem x modulus in
  if Nat.is_zero x then None
  else begin
    let g, s, sg = egcd x modulus in
    if not (Nat.equal g Nat.one) then None
    else
      let s = Nat.rem s modulus in
      match sg with
      | Pos -> Some s
      | Neg -> Some (if Nat.is_zero s then Nat.zero else Nat.sub modulus s)
  end

(* Square root modulo a prime p ≡ 3 (mod 4): x^((p+1)/4). The caller must
   ensure x is a quadratic residue; we verify and return None otherwise. *)
let sqrt_3mod4 ~(x : Nat.t) ~(p : Nat.t) : Nat.t option =
  if not (Nat.testbit p 0 && Nat.testbit p 1) then invalid_arg "Modarith.sqrt_3mod4: p mod 4 <> 3";
  let e = Nat.shift_right (Nat.add p Nat.one) 2 in
  let r = Nat.modexp ~base:x ~exp:e ~modulus:p in
  if Nat.equal (Nat.rem (Nat.mul r r) p) (Nat.rem x p) then Some r else None

let mulmod a b m = Nat.rem (Nat.mul a b) m

let submod a b m =
  let a = Nat.rem a m and b = Nat.rem b m in
  if Nat.compare a b >= 0 then Nat.sub a b else Nat.sub (Nat.add a m) b

let addmod a b m = Nat.rem (Nat.add a b) m

let negmod a m =
  let a = Nat.rem a m in
  if Nat.is_zero a then Nat.zero else Nat.sub m a

(* Chinese remainder theorem for two coprime moduli, given the CRT
   coefficient m1⁻¹ mod m2: x = r1 + m1·((r2 - r1)·m1⁻¹ mod m2). *)
let crt ~(m1_inv : Nat.t) ~(r1 : Nat.t) ~(m1 : Nat.t) ~(r2 : Nat.t) ~(m2 : Nat.t) : Nat.t =
  Nat.add r1 (Nat.mul m1 (mulmod (submod r2 r1 m2) m1_inv m2))
