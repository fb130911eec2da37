(* SRP — the Secure Remote Password protocol (Wu, NDSS '98).

   sfskey and authserv use SRP to let a user retrieve a self-certifying
   pathname (and an encrypted private key) with nothing but a password,
   while revealing nothing an eavesdropper or a fake server could use
   for an off-line guessing attack (paper section 2.4).

   We implement the SRP-6a refinement (k = H(N ∥ g) instead of SRP-3's
   k = 1, closing the two-for-one guess). The password is first
   transformed with eksblowfish so that even a server-side verifier
   leak makes guessing expensive (section 2.5.2). *)

open Sfs_bignum

type group = { n : Nat.t; g : Nat.t }

(* A 512-bit safe prime p = 2q + 1 with p ≡ 3 (mod 8), generated with
   this library (see DESIGN.md); 2 is therefore a primitive root. *)
let default_group =
  {
    n =
      Nat.of_hex
        ("ace8abe0742b6cb23c12184edbe9bcc5281e03eeb2dda3796a76083e2a613707"
       ^ "03a7d19c2b358212c39e154799d7b6edddb0d97c0fada2ed6029e7a77ab6529b");
    g = Nat.two;
  }

let group_width (grp : group) = (Nat.num_bits grp.n + 7) / 8

(* Values are hashed in fixed-width big-endian form. *)
let pad (grp : group) (x : Nat.t) = Nat.to_bytes_be_padded ~width:(group_width grp) x

let hash_nat parts = Nat.of_bytes_be (Sha1.digest_list parts)

let k_of_group (grp : group) : Nat.t =
  hash_nat [ pad grp grp.n; pad grp grp.g ]

(* --- Password hashing --- *)

(* x = H(salt ∥ eksblowfish(cost, salt16, user:password)).  The paper
   stresses guessing "should continue to take almost a full second";
   callers choose the cost (tests use a small one). *)
let private_key ~(cost : int) ~(salt : string) ~(user : string) ~(password : string) : Nat.t =
  let salt16 = String.sub (Sha1.digest ("srp-salt:" ^ salt)) 0 16 in
  let slow = Eksblowfish.hash ~cost ~salt:salt16 (user ^ ":" ^ password) in
  hash_nat [ salt; slow ]

type verifier = { user : string; salt : string; v : Nat.t; cost : int }

let make_verifier ?(cost = 6) (grp : group) (rng : Prng.t) ~(user : string) ~(password : string) : verifier =
  let salt = Prng.random_bytes rng 16 in
  let x = private_key ~cost ~salt ~user ~password in
  { user; salt; v = Nat.modexp ~base:grp.g ~exp:x ~modulus:grp.n; cost }

(* --- Protocol state machines --- *)

type client = {
  c_grp : group;
  c_user : string;
  c_password : string;
  c_a : Nat.t; (* ephemeral secret *)
  c_pub : Nat.t; (* A = g^a *)
}

type server = {
  s_grp : group;
  s_verifier : verifier;
  s_b : Nat.t;
  s_pub : Nat.t; (* B = kv + g^b *)
}

type session = { key : string; proof : string }

let client_start (grp : group) (rng : Prng.t) ~(user : string) ~(password : string) : client =
  let bits = Nat.num_bits grp.n in
  let rec nonzero () =
    let a = Prng.random_nat rng ~bits:(bits - 1) in
    if Nat.is_zero a then nonzero () else a
  in
  let a = nonzero () in
  { c_grp = grp; c_user = user; c_password = password; c_a = a; c_pub = Nat.modexp ~base:grp.g ~exp:a ~modulus:grp.n }

let client_pub (c : client) : Nat.t = c.c_pub
let server_pub (s : server) : Nat.t = s.s_pub

let server_start (grp : group) (rng : Prng.t) (verifier : verifier) : server =
  let bits = Nat.num_bits grp.n in
  let rec nonzero () =
    let b = Prng.random_nat rng ~bits:(bits - 1) in
    if Nat.is_zero b then nonzero () else b
  in
  let b = nonzero () in
  let k = k_of_group grp in
  let gb = Nat.modexp ~base:grp.g ~exp:b ~modulus:grp.n in
  let pub = Modarith.addmod (Modarith.mulmod k verifier.v grp.n) gb grp.n in
  { s_grp = grp; s_verifier = verifier; s_b = b; s_pub = pub }

let scramble (grp : group) ~(a_pub : Nat.t) ~(b_pub : Nat.t) : Nat.t =
  hash_nat [ pad grp a_pub; pad grp b_pub ]

(* Session key and the client's proof M1 = H(A ∥ B ∥ K). *)
let session_of_secret (grp : group) ~(a_pub : Nat.t) ~(b_pub : Nat.t) (secret : Nat.t) : session =
  let key = Sha1.digest (pad grp secret) in
  let proof = Sha1.digest_list [ pad grp a_pub; pad grp b_pub; key ] in
  { key; proof }

(* Client side, on receiving (salt, B). Rejects B ≡ 0 (mod N) and u = 0,
   which a fake server could use to fix the key. *)
let client_finish (c : client) ~(salt : string) ~(cost : int) ~(b_pub : Nat.t) : session option =
  let grp = c.c_grp in
  if Nat.is_zero (Nat.rem b_pub grp.n) then None
  else begin
    let u = scramble grp ~a_pub:c.c_pub ~b_pub in
    if Nat.is_zero u then None
    else begin
      let x = private_key ~cost ~salt ~user:c.c_user ~password:c.c_password in
      let k = k_of_group grp in
      let gx = Nat.modexp ~base:grp.g ~exp:x ~modulus:grp.n in
      (* S = (B - k*g^x) ^ (a + u*x) *)
      let base = Modarith.submod b_pub (Modarith.mulmod k gx grp.n) grp.n in
      let e = Nat.add c.c_a (Nat.mul u x) in
      let secret = Nat.modexp ~base ~exp:e ~modulus:grp.n in
      Some (session_of_secret grp ~a_pub:c.c_pub ~b_pub secret)
    end
  end

(* Server side, on receiving A (and later checking the client's proof).
   Rejects A ≡ 0 (mod N). *)
let server_finish (s : server) ~(a_pub : Nat.t) : session option =
  let grp = s.s_grp in
  if Nat.is_zero (Nat.rem a_pub grp.n) then None
  else begin
    let u = scramble grp ~a_pub ~b_pub:s.s_pub in
    if Nat.is_zero u then None
    else begin
      (* S = (A * v^u) ^ b *)
      let vu = Nat.modexp ~base:s.s_verifier.v ~exp:u ~modulus:grp.n in
      let base = Modarith.mulmod (Nat.rem a_pub grp.n) vu grp.n in
      let secret = Nat.modexp ~base ~exp:s.s_b ~modulus:grp.n in
      Some (session_of_secret grp ~a_pub ~b_pub:s.s_pub secret)
    end
  end

(* Server's counter-proof M2 = H(A ∥ M1 ∥ K). *)
let server_proof (grp : group) ~(a_pub : Nat.t) (session : session) : string =
  Sha1.digest_list [ pad grp a_pub; session.proof; session.key ]

let check_client_proof (server_session : session) ~(proof : string) : bool =
  Sfs_util.Bytesutil.ct_equal server_session.proof proof

let check_server_proof (grp : group) ~(a_pub : Nat.t) (client_session : session) ~(proof : string) : bool =
  Sfs_util.Bytesutil.ct_equal (server_proof grp ~a_pub client_session) proof
