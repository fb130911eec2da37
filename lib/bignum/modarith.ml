(* Modular arithmetic over naturals: inverses, CRT and the small
   helpers Rabin needs. *)

(* The inverse, [None] exactly when gcd(x, m) <> 1.  An odd modulus
   takes the extended binary gcd ({!Nat.inverse_odd}).  An even one
   needs an odd x, and then x⁻¹ mod m = (1 + m·(x - y)) / x for
   y = m⁻¹ mod x: the numerator is ≡ 0 (mod x) and ≡ 1 (mod m), and
   the quotient lies below m. *)
let rec inverse ~(x : Nat.t) ~(modulus : Nat.t) : Nat.t option =
  if Nat.is_zero modulus then raise Division_by_zero;
  let x = Nat.rem x modulus in
  if Nat.is_zero x then None
  else if Nat.testbit modulus 0 then Nat.inverse_odd x modulus
  else if not (Nat.testbit x 0) then None
  else if Nat.equal x Nat.one then Some Nat.one
  else
    Option.map
      (fun y -> Nat.div (Nat.add Nat.one (Nat.mul modulus (Nat.sub x y))) x)
      (inverse ~x:modulus ~modulus:x)

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
