(* Primality testing and prime generation.

   Randomness is supplied by the caller as [rand_bits : int -> Nat.t],
   keeping this library independent of the crypto PRNG built on top. *)

(* All primes below 1000, for trial division. *)
let small_primes : int array =
  let sieve = Array.make 1000 true in
  sieve.(0) <- false;
  sieve.(1) <- false;
  for i = 2 to 999 do
    if sieve.(i) then begin
      let j = ref (i * i) in
      while !j < 1000 do
        sieve.(!j) <- false;
        j := !j + i
      done
    end
  done;
  Array.of_list (List.filter (fun i -> sieve.(i)) (List.init 1000 Fun.id))

(* Only called on n >= 1000, so a zero remainder always means composite. *)
let divisible_by_small_prime (n : Nat.t) : bool =
  let i = ref 0 in
  while !i < Array.length small_primes && Nat.rem_int n small_primes.(!i) <> 0 do incr i done;
  !i < Array.length small_primes

(* [rounds] Miller-Rabin rounds on an odd n >= 1000, in the context [c]
   (already targeted at n).  n - 1 = d·2^s is split once, and every
   round runs in [c]: a^d, then up to s - 1 squarings in place, each
   compared against 1 and n - 1 in Montgomery form.  Each witness is one
   draw below 2^bits(n) brought into [2, n - 2] by subtracting n - 3 (at
   most twice, as the draw is below 2n); the rounds stop at the first
   that proves n composite. *)
let miller_rabin (c : Nat.mont) ~(rounds : int) ~(rand_bits : int -> Nat.t) (n : Nat.t) : bool =
  let n1 = Nat.sub n Nat.one in
  let s = ref 1 in
  while not (Nat.testbit n1 !s) do incr s done;
  let d = Nat.shift_right n1 !s in
  let n3 = Nat.sub n1 Nat.two in
  let bits = Nat.num_bits n in
  let passes () =
    let a = ref (rand_bits bits) in
    while Nat.compare !a n3 >= 0 do a := Nat.sub !a n3 done;
    Nat.mont_pow c ~base:(Nat.add_int !a 2) ~exp:d;
    Nat.mont_unit c <> 0
    ||
    let u = ref 0 and j = ref 1 in
    while !u = 0 && !j < !s do
      Nat.mont_square c;
      u := Nat.mont_unit c;
      incr j
    done;
    !u = -1
  in
  let i = ref 0 in
  while !i < rounds && passes () do incr i done;
  !i = rounds

(* Trial division, then 24 Miller-Rabin rounds in the context [mont n]
   returns for n. *)
let probable_prime (mont : Nat.t -> Nat.mont) ~(rand_bits : int -> Nat.t) (n : Nat.t) : bool =
  match Nat.to_int_opt n with
  | Some v when v < 1000 -> Array.mem v small_primes
  | _ -> Nat.testbit n 0 && (not (divisible_by_small_prime n)) && miller_rabin (mont n) ~rounds:24 ~rand_bits n

let is_probably_prime ~(rand_bits : int -> Nat.t) (n : Nat.t) : bool = probable_prime Nat.mont ~rand_bits n

(* Generate a prime of exactly [bits] bits with n ≡ congruent (mod modulus)
   when a congruence is requested (Rabin-Williams needs p ≡ 3 (mod 8) and
   q ≡ 7 (mod 8)).  A candidate is a draw with its top bit and bit 0
   set, then raised by (r - c mod m) mod m; a raise that carries past
   the top bit makes the candidate too wide, and a fresh one is drawn.
   Bit 0 and the raise are one native [Nat.add_int] on the draw with its
   top bit set, and every candidate that reaches Miller-Rabin runs in
   the search's one re-targeted Montgomery context. *)
let generate ?(congruence : (int * int) option) ~(rand_bits : int -> Nat.t) (bits : int) : Nat.t =
  if bits < 8 then invalid_arg "Prime.generate: too few bits";
  let ctx = ref None in
  let mont c =
    let mc = Nat.mont_for !ctx c in
    ctx := Some mc;
    mc
  in
  let rec try_candidate () =
    let c = Nat.set_bit (rand_bits bits) (bits - 1) in
    let odd = if Nat.testbit c 0 then 0 else 1 in
    let raise_by =
      match congruence with
      | None -> odd
      | Some (r, m) -> odd + (((r mod m) - ((Nat.rem_int c m + odd) mod m) + m) mod m)
    in
    let c = Nat.add_int c raise_by in
    if Nat.num_bits c <> bits then try_candidate ()
    else if probable_prime mont ~rand_bits c then c
    else try_candidate ()
  in
  try_candidate ()
