(* Primality testing and prime generation.

   Randomness is supplied by the caller as [rand_bits : int -> Nat.t],
   keeping this library independent of the crypto PRNG built on top. *)

let small_primes =
  (* All primes below 1000, for trial division. *)
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
  let acc = ref [] in
  for i = 999 downto 2 do
    if sieve.(i) then acc := i :: !acc
  done;
  !acc

(* A hit is rare, so only then is [n = p] (n itself a small prime) ruled out. *)
let divisible_by_small_prime (n : Nat.t) : bool =
  List.exists (fun p -> Nat.rem_int n p = 0 && not (Nat.equal n (Nat.of_int p))) small_primes

(* One Miller-Rabin round with witness [a]. *)
let miller_rabin_witness (n : Nat.t) (a : Nat.t) : bool =
  (* Returns true when [a] proves n composite. *)
  let n1 = Nat.sub n Nat.one in
  let s = ref 0 in
  let d = ref n1 in
  while not (Nat.testbit !d 0) do
    d := Nat.shift_right !d 1;
    incr s
  done;
  let x = ref (Nat.modexp ~base:a ~exp:!d ~modulus:n) in
  if Nat.equal !x Nat.one || Nat.equal !x n1 then false
  else begin
    let composite = ref true in
    (try
       for _ = 1 to !s - 1 do
         x := Nat.rem (Nat.mul !x !x) n;
         if Nat.equal !x n1 then begin
           composite := false;
           raise Exit
         end
       done
     with Exit -> ());
    !composite
  end

let is_probably_prime ?(rounds = 24) ~(rand_bits : int -> Nat.t) (n : Nat.t) : bool =
  match Nat.to_int_opt n with
  | Some v when v < 2 -> false
  | Some v when v < 1000 -> List.mem v small_primes
  | _ ->
      (not (Nat.testbit n 0 = false))
      && (not (divisible_by_small_prime n))
      &&
      let bits = Nat.num_bits n in
      let rec attempt i =
        if i >= rounds then true
        else begin
          (* Draw a witness in [2, n-2]. *)
          let a = Nat.add (Nat.rem (rand_bits bits) (Nat.sub n (Nat.of_int 3))) Nat.two in
          if miller_rabin_witness n a then false else attempt (i + 1)
        end
      in
      attempt 0

(* Generate a prime of exactly [bits] bits with n ≡ congruent (mod modulus)
   when a congruence is requested (Rabin-Williams needs p ≡ 3 (mod 8) and
   q ≡ 7 (mod 8)). *)
let generate ?(congruence : (int * int) option) ~(rand_bits : int -> Nat.t) (bits : int) : Nat.t =
  if bits < 8 then invalid_arg "Prime.generate: too few bits";
  let rec try_candidate () =
    let c = rand_bits bits in
    (* Force the top bit (exact width) and low bit (odd). *)
    let c = Nat.add c (Nat.shift_left Nat.one (bits - 1)) in
    let c = Nat.rem c (Nat.shift_left Nat.one bits) in
    let c = if Nat.testbit c (bits - 1) then c else Nat.add c (Nat.shift_left Nat.one (bits - 1)) in
    let c = if Nat.testbit c 0 then c else Nat.add c Nat.one in
    let c =
      match congruence with
      | None -> c
      | Some (residue, modulus) ->
          let m = Nat.of_int modulus in
          let r = Nat.of_int residue in
          let cur = Nat.rem c m in
          let c = Modarith.addmod c (Modarith.submod r cur m) (Nat.shift_left Nat.one (bits + 4)) in
          (* Adjusting the residue may clear the top bit; retry if so. *)
          c
    in
    if Nat.num_bits c <> bits then try_candidate ()
    else if is_probably_prime ~rand_bits c then c
    else try_candidate ()
  in
  try_candidate ()
