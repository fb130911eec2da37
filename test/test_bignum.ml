open Sfs_bignum

let n = Nat.of_string
let check_nat msg a b = Alcotest.(check string) msg (Nat.to_string a) (Nat.to_string b)

(* Values built limb by limb, for the division and remainder kernels'
   corner cases.  Limbs are 26 bits wide. *)
let limb_bits = 26
let limb_max = (1 lsl limb_bits) - 1

let of_limbs (limbs : int list) : Nat.t =
  List.fold_left (fun acc l -> Nat.add (Nat.shift_left acc limb_bits) (Nat.of_int l)) Nat.zero
    (List.rev limbs)

let test_basic_arith () =
  check_nat "add" (n "579") (Nat.add (n "123") (n "456"));
  check_nat "sub" (n "333") (Nat.sub (n "456") (n "123"));
  check_nat "mul" (n "56088") (Nat.mul (n "123") (n "456"));
  check_nat "big mul"
    (n "121932631137021795226185032733622923332237463801111263526900")
    (Nat.mul (n "123456789012345678901234567890") (n "987654321098765432109876543210"));
  let q, r = Nat.divmod (n "1000000007") (n "97") in
  check_nat "div" (n "10309278") q;
  check_nat "rem" (n "41") r

let test_conversions () =
  check_nat "of_int" (n "123456789") (Nat.of_int 123456789);
  Alcotest.(check (option int)) "to_int" (Some 42) (Nat.to_int_opt (n "42"));
  Alcotest.(check (option int)) "to_int big" None (Nat.to_int_opt (n "123456789123456789123456789"));
  check_nat "bytes rt" (n "65536") (Nat.of_bytes_be (Nat.to_bytes_be (n "65536")));
  Alcotest.(check string) "to_bytes" "\x01\x00\x00" (Nat.to_bytes_be (n "65536"));
  Alcotest.(check string) "padded" "\x00\x01\x00\x00" (Nat.to_bytes_be_padded ~width:4 (n "65536"));
  Alcotest.(check string) "hex" "10000" (Nat.to_hex (n "65536"));
  check_nat "of_hex" (n "65536") (Nat.of_hex "10000");
  Alcotest.(check string) "zero bytes" "" (Nat.to_bytes_be Nat.zero);
  Alcotest.(check string) "zero decimal" "0" (Nat.to_string Nat.zero)

let test_bits () =
  Testkit.check_int "num_bits 0" 0 (Nat.num_bits Nat.zero);
  Testkit.check_int "num_bits 1" 1 (Nat.num_bits Nat.one);
  Testkit.check_int "num_bits 255" 8 (Nat.num_bits (n "255"));
  Testkit.check_int "num_bits 256" 9 (Nat.num_bits (n "256"));
  Testkit.check_bool "testbit" true (Nat.testbit (n "4") 2);
  Testkit.check_bool "testbit off" false (Nat.testbit (n "4") 1);
  check_nat "shl" (n "1024") (Nat.shift_left Nat.one 10);
  check_nat "shr" (n "1") (Nat.shift_right (n "1024") 10);
  check_nat "shr to zero" Nat.zero (Nat.shift_right (n "1024") 11)

let test_modexp () =
  (* 2^10 mod 1000 = 24 *)
  check_nat "small" (n "24") (Nat.modexp ~base:Nat.two ~exp:(n "10") ~modulus:(n "1000"));
  (* Fermat: a^(p-1) = 1 mod p *)
  let p = n "1000000007" in
  check_nat "fermat" Nat.one (Nat.modexp ~base:(n "123456") ~exp:(Nat.sub p Nat.one) ~modulus:p);
  check_nat "mod 1" Nat.zero (Nat.modexp ~base:(n "5") ~exp:(n "5") ~modulus:Nat.one);
  (* Powers that vanish mod m: the Montgomery ladder must reduce fully,
     or a zero residue comes out as a nonzero multiple of m. *)
  let rec pow3 k = if k = 0 then Nat.one else Nat.mul (Nat.of_int 3) (pow3 (k - 1)) in
  List.iter
    (fun (b, e, m) ->
      check_nat "vanishing power" Nat.zero (Nat.modexp ~base:(pow3 b) ~exp:(Nat.of_int e) ~modulus:(pow3 m)))
    [ (1, 300, 200); (40, 3, 100); (7, 100, 500); (100, 2, 200) ];
  let m = Nat.mul (pow3 1) (n "170141183460469231731687303715884105727") in
  check_nat "base = m" Nat.zero (Nat.modexp ~base:m ~exp:(n "65537") ~modulus:m)

(* Knuth D's quotient-limb estimate on fixed hard cases.  Runs of
   all-ones limbs over divisors just above a power of two make the
   estimate overshoot maximally; the last case (the base-2^26 analogue
   of Hacker's Delight's add-back example) passes the two-limb q̂ test
   still one too large, so only the add-back step repairs it.  The
   Euclidean identity is a complete correctness check. *)
let test_divmod_qhat () =
  let ones k = Nat.sub (Nat.shift_left Nat.one k) Nat.one in
  let cases =
    [
      (ones 512, Nat.add (Nat.shift_left Nat.one 256) Nat.one);
      (ones 512, ones 256);
      (ones 1024, Nat.add (Nat.shift_left Nat.one 100) (Nat.of_int 12345));
      (Nat.shift_left Nat.one 511, Nat.add (Nat.shift_left Nat.one 255) Nat.one);
      (Nat.add (Nat.shift_left (ones 256) 256) (Nat.of_int 7), Nat.add (ones 256) Nat.one);
      (ones 960, Nat.add (ones 320) Nat.two);
      (of_limbs [ 0; 0; 1 lsl 25; (1 lsl 25) - 1 ], of_limbs [ 1; 0; 1 lsl 25 ]);
    ]
  in
  List.iter
    (fun (a, b) ->
      let q, r = Nat.divmod a b in
      Testkit.check_bool "a = q*b + r" true (Nat.equal a (Nat.add (Nat.mul q b) r));
      Testkit.check_bool "r < b" true (Nat.compare r b < 0))
    cases

let test_gcd () =
  check_nat "gcd" (n "6") (Nat.gcd (n "48") (n "18"));
  check_nat "gcd coprime" Nat.one (Nat.gcd (n "17") (n "31"));
  check_nat "gcd zero" (n "5") (Nat.gcd (n "5") Nat.zero)

let test_inverse () =
  (match Modarith.inverse ~x:(n "3") ~modulus:(n "7") with
  | Some v -> check_nat "3^-1 mod 7" (n "5") v
  | None -> Alcotest.fail "expected inverse");
  Alcotest.(check bool) "no inverse" true (Modarith.inverse ~x:(n "6") ~modulus:(n "9") = None);
  (* inverse(x) * x = 1 for a big prime modulus *)
  let p = n "170141183460469231731687303715884105727" (* 2^127 - 1, prime *) in
  let x = n "123456789123456789123456789" in
  match Modarith.inverse ~x ~modulus:p with
  | Some v -> check_nat "big inverse" Nat.one (Modarith.mulmod v x p)
  | None -> Alcotest.fail "expected big inverse"

let test_jacobi () =
  (* Squares have symbol 1 mod a prime; known non-residues -1. *)
  let p = n "23" in
  Testkit.check_int "square" 1 (Nat.jacobi (n "2") p);
  Testkit.check_int "nonresidue" (-1) (Nat.jacobi (n "5") p);
  Testkit.check_int "zero" 0 (Nat.jacobi (n "23") p);
  Testkit.check_int "jacobi(1/9)" 1 (Nat.jacobi Nat.one (n "9"));
  Testkit.check_int "jacobi(0/1)" 1 (Nat.jacobi Nat.zero Nat.one);
  Testkit.check_int "jacobi(0/9)" 0 (Nat.jacobi Nat.zero (n "9"));
  Testkit.check_int "a > n" (-1) (Nat.jacobi (n "51") p);
  Testkit.check_int "composite n" (-1) (Nat.jacobi (n "7") (n "15"));
  Alcotest.check_raises "even modulus" (Invalid_argument "Nat.jacobi: even modulus") (fun () ->
      ignore (Nat.jacobi Nat.one (n "10")))

(* The reciprocity-with-division algorithm [Nat.jacobi] replaced, kept
   as its oracle: reduce a mod n, strip twos with (2/n), flip by
   reciprocity, recurse on (n mod a / a). *)
let jacobi_reciprocity (a : Nat.t) (n : Nat.t) : int =
  let rec go a n acc =
    let a = Nat.rem a n in
    if Nat.is_zero a then if Nat.equal n Nat.one then acc else 0
    else begin
      let twos = ref 0 and a = ref a in
      while not (Nat.testbit !a 0) do
        a := Nat.shift_right !a 1;
        incr twos
      done;
      let n8 = Nat.rem_int n 8 in
      let acc = if !twos land 1 = 1 && (n8 = 3 || n8 = 5) then -acc else acc in
      if Nat.equal !a Nat.one then acc
      else
        let acc = if Nat.rem_int !a 4 = 3 && n8 land 3 = 3 then -acc else acc in
        go n !a acc
    end
  in
  go a n 1

(* The square root a Rabin key takes in each prime's context:
   x^((p+1)/4) mod p for p ≡ 3 (mod 4), read out with [mont_out].
   Squared back it gives x for a residue and not for a non-residue, and
   the context is reused across calls. *)
let test_sqrt () =
  let p = n "1000000007" in
  (* p mod 4 = 3 *)
  let e = Nat.shift_right (Nat.add p Nat.one) 2 in
  let c = Nat.mont p in
  let root x =
    Nat.mont_pow c ~base:x ~exp:e;
    Nat.mont_out c
  in
  let x = Modarith.mulmod (n "98765") (n "98765") p in
  check_nat "sqrt squared" x (Modarith.mulmod (root x) (root x) p);
  (* A non-residue has no root: the candidate does not square back. *)
  let rec find_nonresidue c =
    if Nat.jacobi (n (string_of_int c)) p = -1 then n (string_of_int c) else find_nonresidue (c + 1)
  in
  let y = find_nonresidue 2 in
  let r = root y in
  Alcotest.(check bool) "nonresidue rejected" false (Nat.equal (Modarith.mulmod r r p) y)

let test_crt () =
  match Modarith.inverse ~x:(n "3") ~modulus:(n "5") with
  | None -> Alcotest.fail "3 is invertible mod 5"
  | Some m1_inv ->
      let x = Modarith.crt ~m1_inv ~r1:(n "2") ~m1:(n "3") ~r2:(n "3") ~m2:(n "5") in
      check_nat "crt" (n "8") x

let test_primality () =
  let rand_bits = Testkit.rand_bits_fn 1 in
  let prime_p s = Prime.is_probably_prime ~rand_bits (n s) in
  Testkit.check_bool "17" true (prime_p "17");
  Testkit.check_bool "1" false (prime_p "1");
  Testkit.check_bool "561 (Carmichael)" false (prime_p "561");
  Testkit.check_bool "2^127-1" true (prime_p "170141183460469231731687303715884105727");
  Testkit.check_bool "2^128+1" false (prime_p "340282366920938463463374607431768211457");
  Testkit.check_bool "even" false (prime_p "1000000008")

let test_generation () =
  let rand_bits = Testkit.rand_bits_fn 7 in
  let p = Prime.generate ~rand_bits 128 in
  Testkit.check_int "width" 128 (Nat.num_bits p);
  Testkit.check_bool "prime" true (Prime.is_probably_prime ~rand_bits p);
  (* Rabin congruences *)
  let p3 = Prime.generate ~congruence:(3, 8) ~rand_bits 96 in
  Alcotest.(check (option int)) "p mod 8 = 3" (Some 3) (Nat.to_int_opt (Nat.rem p3 (Nat.of_int 8)));
  let p7 = Prime.generate ~congruence:(7, 8) ~rand_bits 96 in
  Alcotest.(check (option int)) "q mod 8 = 7" (Some 7) (Nat.to_int_opt (Nat.rem p7 (Nat.of_int 8)))

(* Seeded key generation is pinned by the SHA-1 of the public key, so a
   change in how the prime search consumes randomness (trial division,
   witness draws, congruence fix-up) fails here by name, not only
   through a fleet ledger digest downstream. *)
let test_seeded_keys () =
  List.iter
    (fun (bits, want) ->
      let rng = Sfs_crypto.Prng.create [ "bignum-pinned-key"; string_of_int bits ] in
      let sk = Sfs_crypto.Rabin.generate ~bits rng in
      let got =
        Sfs_util.Hex.encode (Sfs_crypto.Sha1.digest (Sfs_crypto.Rabin.pub_to_string sk.Sfs_crypto.Rabin.pub))
      in
      Testkit.check_string (Printf.sprintf "rabin-%d public key sha1" bits) want got)
    [ (384, "59b9c4fe66758aac56fa5856b2dfeda849d46b3c"); (512, "ea54a4750a477bf338f4e427772c6a546b3ab3f6") ]

(* Property tests: arithmetic laws on random values. *)
let nat_gen =
  let open QCheck.Gen in
  map (fun s -> Nat.of_bytes_be s) (string_size ~gen:char (int_range 0 40))

let nat_arb = QCheck.make ~print:Nat.to_string nat_gen

let nonzero_arb =
  QCheck.make ~print:Nat.to_string
    (QCheck.Gen.map (fun x -> Nat.add x Nat.one) nat_gen)

(* Wider operands (up to ~560 bits) so modexp's sliding window opens
   past one bit and multiplication crosses the Karatsuba threshold. *)
let wide_gen =
  let open QCheck.Gen in
  map (fun s -> Nat.of_bytes_be s) (string_size ~gen:char (int_range 0 70))

let wide_arb = QCheck.make ~print:Nat.to_string wide_gen

let wide_nonzero_arb =
  QCheck.make ~print:Nat.to_string (QCheck.Gen.map (fun x -> Nat.add x Nat.one) wide_gen)

(* Knuth D's hard cases: a divisor whose top limb sits at or just above
   half the base (already normalized, so no shift hides the case) and a
   dividend of mostly all-ones limbs.  The quotient estimate then
   overshoots as far as it can, driving both the two-limb q̂ correction
   and the add-back step. *)
let knuth_arb =
  let open QCheck.Gen in
  let half = 1 lsl (limb_bits - 1) in
  let low_limb = oneof [ return 0; return 1; return limb_max; return (limb_max - 1); int_bound limb_max ] in
  let gen =
    int_range 2 12 >>= fun nb ->
    int_range 0 12 >>= fun extra ->
    list_repeat (nb - 1) low_limb >>= fun v_low ->
    int_range 0 3 >>= fun top_delta ->
    list_repeat (nb + extra)
      (frequency [ (6, return limb_max); (1, low_limb); (1, return half); (1, return (half - 1)) ])
    >>= fun u -> return (of_limbs u, of_limbs (v_low @ [ half + top_delta ]))
  in
  QCheck.make ~print:(fun (a, b) -> Nat.to_hex a ^ " / " ^ Nat.to_hex b) gen

let rec euclid_gcd a b = if Nat.is_zero b then a else euclid_gcd b (Nat.rem a b)

(* Odd moduli, composite included: 2x + 1 over the wide range, and
   n = 1 outright. *)
let odd_arb =
  QCheck.make ~print:Nat.to_string
    QCheck.Gen.(
      frequency
        [ (1, return Nat.one); (9, map (fun x -> Nat.add (Nat.shift_left x 1) Nat.one) wide_gen) ])

(* The inverse is the one value in [0, m) whose product with x is 1
   mod m, and exists exactly when gcd(x, m) = 1; below m = 2 it never
   does (the inverse of anything mod 1 is reported absent).  Moduli run
   over odd, even and tiny values, x over zero, multiples of m and
   values far above it. *)
let inverse_law (x, m) =
  match Modarith.inverse ~x ~modulus:m with
  | Some v ->
      Nat.compare m Nat.one > 0
      && Nat.compare v m < 0
      && Nat.equal (Nat.rem (Nat.mul x v) m) Nat.one
      && Nat.equal (Nat.gcd x m) Nat.one
  | None -> Nat.equal m Nat.one || not (Nat.equal (Nat.gcd x m) Nat.one)

let props =
  let open QCheck in
  [
    Test.make ~count:500 ~name:"binary inverse: x·inv = 1 mod m, None iff gcd <> 1"
      (pair wide_arb wide_nonzero_arb) inverse_law;
    Test.make ~count:300 ~name:"binary inverse over odd moduli" (pair wide_arb odd_arb) inverse_law;
    Test.make ~count:300 ~name:"binary inverse of a multiple's neighbour"
      (pair wide_nonzero_arb (int_range 1 5)) (fun (m, k) ->
        inverse_law (Nat.add (Nat.mul m (Nat.of_int k)) Nat.one, m)
        && inverse_law (Nat.mul m (Nat.of_int k), m));
    (* a ranges over zero, values below n and values far above it. *)
    Test.make ~count:500 ~name:"binary jacobi agrees with reciprocity" (pair wide_arb odd_arb)
      (fun (a, m) -> Nat.jacobi a m = jacobi_reciprocity a m);
    Test.make ~count:200 ~name:"jacobi of a square product" (pair wide_arb odd_arb) (fun (a, m) ->
        let sq = Nat.mul a a in
        Nat.jacobi sq m = if Nat.equal (Nat.gcd a m) Nat.one then 1 else 0);
    Test.make ~count:300 ~name:"add commutative" (pair nat_arb nat_arb) (fun (a, b) ->
        Nat.equal (Nat.add a b) (Nat.add b a));
    Test.make ~count:300 ~name:"add associative" (triple nat_arb nat_arb nat_arb) (fun (a, b, c) ->
        Nat.equal (Nat.add (Nat.add a b) c) (Nat.add a (Nat.add b c)));
    Test.make ~count:300 ~name:"mul commutative" (pair nat_arb nat_arb) (fun (a, b) ->
        Nat.equal (Nat.mul a b) (Nat.mul b a));
    Test.make ~count:100 ~name:"mul associative" (triple nat_arb nat_arb nat_arb) (fun (a, b, c) ->
        Nat.equal (Nat.mul (Nat.mul a b) c) (Nat.mul a (Nat.mul b c)));
    Test.make ~count:300 ~name:"distributive" (triple nat_arb nat_arb nat_arb) (fun (a, b, c) ->
        Nat.equal (Nat.mul a (Nat.add b c)) (Nat.add (Nat.mul a b) (Nat.mul a c)));
    Test.make ~count:300 ~name:"sub inverts add" (pair nat_arb nat_arb) (fun (a, b) ->
        Nat.equal (Nat.sub (Nat.add a b) b) a);
    Test.make ~count:300 ~name:"divmod identity" (pair nat_arb nonzero_arb) (fun (a, b) ->
        let q, r = Nat.divmod a b in
        Nat.equal a (Nat.add (Nat.mul q b) r) && Nat.compare r b < 0);
    Test.make ~count:300 ~name:"bytes roundtrip" nat_arb (fun a ->
        Nat.equal a (Nat.of_bytes_be (Nat.to_bytes_be a)));
    Test.make ~count:300 ~name:"decimal roundtrip" nat_arb (fun a ->
        Nat.equal a (Nat.of_string (Nat.to_string a)));
    Test.make ~count:300 ~name:"shift inverse" (pair nat_arb (int_range 0 100)) (fun (a, k) ->
        Nat.equal a (Nat.shift_right (Nat.shift_left a k) k));
    Test.make ~count:300 ~name:"shift_left is mul by 2^k" (pair nat_arb (int_range 0 64)) (fun (a, k) ->
        Nat.equal (Nat.shift_left a k) (Nat.mul a (Nat.modexp ~base:Nat.two ~exp:(Nat.of_int k) ~modulus:(Nat.shift_left Nat.one 128))));
    Test.make ~count:100 ~name:"karatsuba agrees with schoolbook sizes"
      (pair (QCheck.make (QCheck.Gen.string_size ~gen:QCheck.Gen.char (QCheck.Gen.int_range 100 200)))
         (QCheck.make (QCheck.Gen.string_size ~gen:QCheck.Gen.char (QCheck.Gen.int_range 100 200))))
      (fun (sa, sb) ->
        let a = Nat.of_bytes_be sa and b = Nat.of_bytes_be sb in
        (* (a+1)(b+1) = ab + a + b + 1 exercises the Karatsuba path. *)
        let a1 = Nat.add a Nat.one and b1 = Nat.add b Nat.one in
        Nat.equal (Nat.mul a1 b1) (Nat.add (Nat.add (Nat.mul a b) (Nat.add a b)) Nat.one));
    Test.make ~count:50 ~name:"modexp multiplicative" (triple nat_arb nat_arb nonzero_arb)
      (fun (a, b, m) ->
        let m = Nat.add m Nat.one in
        let e = Nat.of_int 13 in
        Nat.equal
          (Nat.modexp ~base:(Nat.mul a b) ~exp:e ~modulus:m)
          (Nat.rem (Nat.mul (Nat.modexp ~base:a ~exp:e ~modulus:m) (Nat.modexp ~base:b ~exp:e ~modulus:m)) m));
    Test.make ~count:500 ~name:"divmod knuth d corner cases" knuth_arb (fun (a, b) ->
        let q, r = Nat.divmod a b in
        Nat.equal a (Nat.add (Nat.mul q b) r) && Nat.compare r b < 0);
    Test.make ~count:300 ~name:"rem_int agrees with rem"
      (pair wide_arb (oneof [ int_range 1 1000; int_range 1 (1 lsl 36) ])) (fun (a, d) ->
        Nat.equal (Nat.of_int (Nat.rem_int a d)) (Nat.rem a (Nat.of_int d)));
    Test.make ~count:200 ~name:"binary gcd agrees with euclid"
      (triple wide_arb wide_arb (int_range 0 80)) (fun (a, b, k) ->
        (* A shared power of two exercises the final shift back. *)
        let a = Nat.shift_left a k and b = Nat.shift_left b (k / 2) in
        Nat.equal (Nat.gcd a b) (euclid_gcd a b));
    Test.make ~count:200 ~name:"gcd divides both" (pair nonzero_arb nonzero_arb) (fun (a, b) ->
        let g = Nat.gcd a b in
        Nat.is_zero (Nat.rem a g) && Nat.is_zero (Nat.rem b g));
    (* Montgomery fast path vs the retained reference ladder.  Wide
       operands so the sliding window actually widens past 1 bit; the
       modulus parity is whatever falls out of the generator, covering
       both the Montgomery path (odd) and the reference fallback (even). *)
    Test.make ~count:200 ~name:"montgomery modexp agrees with reference"
      (triple wide_arb wide_arb wide_nonzero_arb) (fun (b, e, m) ->
        Nat.equal (Nat.modexp ~base:b ~exp:e ~modulus:m)
          (Nat.modexp_reference ~base:b ~exp:e ~modulus:m));
    (* A context re-targeted in place ([mont_for], as one prime search
       runs all its candidates) computes as a fresh one: one context
       walks a list of odd moduli, half of them forced to four limbs so
       the limb count often repeats; it is reused exactly then, and
       every power read out with [mont_out] matches the reference. *)
    Test.make ~count:100 ~name:"re-targeted montgomery context agrees with reference"
      (pair (list_of_size (Gen.int_range 1 8) (triple odd_arb bool wide_arb)) wide_arb)
      (fun (steps, e) ->
        let limbs m = (Nat.num_bits m + 25) / 26 in
        let four_limbs m = Nat.set_bit (Nat.rem m (Nat.shift_left Nat.one 104)) 103 in
        let prev = ref None in
        List.for_all
          (fun (m, narrow, b) ->
            let m = if narrow then four_limbs m else m in
            Nat.equal m Nat.one
            ||
            let c = Nat.mont_for (Option.map snd !prev) m in
            let reused = match !prev with Some (m0, c0) -> c0 == c && limbs m0 = limbs m | None -> false in
            let expected = match !prev with Some (m0, _) -> limbs m0 = limbs m | None -> false in
            prev := Some (m, c);
            Nat.mont_pow c ~base:b ~exp:e;
            reused = expected && Nat.equal (Nat.mont_out c) (Nat.modexp_reference ~base:b ~exp:e ~modulus:m))
          steps);
    Test.make ~count:100 ~name:"montgomery modexp agrees on even modulus"
      (triple wide_arb wide_arb wide_nonzero_arb) (fun (b, e, m) ->
        let m = Nat.mul m Nat.two in
        Nat.equal (Nat.modexp ~base:b ~exp:e ~modulus:m)
          (Nat.modexp_reference ~base:b ~exp:e ~modulus:m));
    Test.make ~count:100 ~name:"montgomery modexp edge exponents" (pair wide_arb wide_nonzero_arb)
      (fun (b, m) ->
        Nat.equal (Nat.modexp ~base:b ~exp:Nat.zero ~modulus:m)
          (Nat.modexp_reference ~base:b ~exp:Nat.zero ~modulus:m)
        && Nat.equal (Nat.modexp ~base:b ~exp:Nat.one ~modulus:m)
             (Nat.modexp_reference ~base:b ~exp:Nat.one ~modulus:m)
        && Nat.equal (Nat.modexp ~base:b ~exp:b ~modulus:Nat.one)
             (Nat.modexp_reference ~base:b ~exp:b ~modulus:Nat.one));
    (* Karatsuba vs schoolbook, directly: operands wide enough to split
       (and recurse) against products small enough to stay schoolbook,
       cross-checked through the distributive law with single-limb
       factors that cannot themselves take the Karatsuba path. *)
    Test.make ~count:100 ~name:"karatsuba agrees with schoolbook directly"
      (triple wide_arb wide_arb (int_range 1 1000)) (fun (a, b, k) ->
        let kn = Nat.of_int k in
        (* (a*k)*b uses schoolbook for a*k (tiny limb count) and
           Karatsuba for the wide product; a*(k*b) associates the other
           way.  Equality pins both against each other. *)
        Nat.equal (Nat.mul (Nat.mul a kn) b) (Nat.mul a (Nat.mul kn b)));
  ]

let suite =
  ( "bignum",
    [
      Alcotest.test_case "basic arithmetic" `Quick test_basic_arith;
      Alcotest.test_case "conversions" `Quick test_conversions;
      Alcotest.test_case "bit operations" `Quick test_bits;
      Alcotest.test_case "modexp" `Quick test_modexp;
      Alcotest.test_case "divmod qhat walk-down" `Quick test_divmod_qhat;
      Alcotest.test_case "gcd" `Quick test_gcd;
      Alcotest.test_case "modular inverse" `Quick test_inverse;
      Alcotest.test_case "jacobi symbol" `Quick test_jacobi;
      Alcotest.test_case "modular sqrt" `Quick test_sqrt;
      Alcotest.test_case "crt" `Quick test_crt;
      Alcotest.test_case "primality" `Quick test_primality;
      Alcotest.test_case "prime generation" `Slow test_generation;
      Alcotest.test_case "seeded key digests" `Quick test_seeded_keys;
    ]
    @ Testkit.to_alcotest props )
