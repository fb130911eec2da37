(* Rabin-Williams public-key encryption and signatures.

   SFS uses Rabin (paper section 3.1.3) because, assuming only that
   factoring is hard, "encryption and signature verification are
   particularly fast ... because they do not require modular
   exponentiation" — both are a single modular squaring.

   Keys use the Williams congruences p ≡ 3 (mod 8), q ≡ 7 (mod 8), so
   that for any m coprime to n = pq exactly one of {m, -m, 2m, -2m} is a
   quadratic residue: the Jacobi symbol (2/n) is -1 and (-1/n) = +1 with
   -1 a non-residue mod both primes.  A signature therefore carries two
   tweak bits (e ∈ {±1}, f ∈ {1,2}) beside the root.

   Encryption applies OAEP (Bellare-Rogaway) before squaring, giving the
   plaintext-aware, chosen-ciphertext-secure scheme the paper cites;
   decryption tries the square roots in turn and the OAEP redundancy
   identifies the real plaintext.

   The connect step (paper Figs. 3 and 4) runs this module on every
   mount, so the private key carries each prime's Montgomery context and
   root exponent, decryption stops at the first root OAEP accepts, and
   OAEP and MGF1 work in place on one buffer through one SHA-1 context. *)

open Sfs_bignum

type pub = { n : Nat.t; bits : int }

(* One prime's square-root context: its Montgomery context and the
   exponent (p + 1)/4, since for p ≡ 3 (mod 4) a residue x mod p has
   the root x^((p+1)/4).  The context is scratch every root computation
   under the key reuses. *)
type root = { ctx : Nat.mont; exp : Nat.t }

(* [p_inv] = p⁻¹ mod q, the CRT coefficient (PKCS #1's qInv with the
   primes swapped), and the two root contexts: computed once per key,
   never serialized. *)
type priv = {
  pub : pub;
  p : Nat.t;
  q : Nat.t;
  p_inv : Nat.t;
  p_root : root;
  q_root : root;
}

let root_of_prime (p : Nat.t) : root =
  { ctx = Nat.mont p; exp = Nat.shift_right (Nat.add p Nat.one) 2 }

(* The key for primes p and q, the one constructor; [None] unless both
   are 3 (mod 4) and coprime. *)
let priv_of_primes (p : Nat.t) (q : Nat.t) : priv option =
  let three_mod_four x = Nat.testbit x 0 && Nat.testbit x 1 in
  if not (three_mod_four p && three_mod_four q) then None
  else
    match Modarith.inverse ~x:p ~modulus:q with
    | None -> None
    | Some p_inv ->
        let n = Nat.mul p q in
        Some { pub = { n; bits = Nat.num_bits n }; p; q; p_inv; p_root = root_of_prime p; q_root = root_of_prime q }

let modulus_bytes (pk : pub) = (pk.bits + 7) / 8

(* --- Key generation --- *)

let generate ?(bits = 1024) (rng : Prng.t) : priv =
  if bits < 128 then invalid_arg "Rabin.generate: modulus too small";
  let rand_bits b = Prng.random_nat rng ~bits:b in
  let half = bits / 2 in
  let rec go () =
    let p = Prime.generate ~congruence:(3, 8) ~rand_bits half in
    let q = Prime.generate ~congruence:(7, 8) ~rand_bits (bits - half) in
    match priv_of_primes p q with Some sk -> sk | None -> go ()
  in
  go ()

(* --- Serialization (feeds HostID hashing and wire formats) --- *)

let pub_to_string (pk : pub) : string =
  let nb = Nat.to_bytes_be pk.n in
  "rabin-pk:" ^ Sfs_util.Bytesutil.be32_of_int (String.length nb) ^ nb

let pub_of_string (s : string) : pub option =
  let prefix = "rabin-pk:" in
  let plen = String.length prefix in
  if String.length s < plen + 4 || String.sub s 0 plen <> prefix then None
  else begin
    let len = Sfs_util.Bytesutil.int_of_be32 s ~off:plen in
    if String.length s <> plen + 4 + len then None
    else
      let n = Nat.of_bytes_be (String.sub s (plen + 4) len) in
      if Nat.num_bits n < 16 then None else Some { n; bits = Nat.num_bits n }
  end

let pub_equal (a : pub) (b : pub) = Nat.equal a.n b.n
let pub_fingerprint (pk : pub) = Sha1.digest (pub_to_string pk)

(* Private keys serialize for agent storage and the encrypted-key
   registration flow (sfskey deposits them with authserv, sealed under
   an eksblowfish-derived key). *)
let priv_to_string (sk : priv) : string =
  let p = Nat.to_bytes_be sk.p and q = Nat.to_bytes_be sk.q in
  "rabin-sk:"
  ^ Sfs_util.Bytesutil.be32_of_int (String.length p)
  ^ p
  ^ Sfs_util.Bytesutil.be32_of_int (String.length q)
  ^ q

let priv_of_string (s : string) : priv option =
  let prefix = "rabin-sk:" in
  let plen = String.length prefix in
  if String.length s < plen + 8 || String.sub s 0 plen <> prefix then None
  else begin
    let lp = Sfs_util.Bytesutil.int_of_be32 s ~off:plen in
    if String.length s < plen + 4 + lp + 4 then None
    else begin
      let p = Nat.of_bytes_be (String.sub s (plen + 4) lp) in
      let lq = Sfs_util.Bytesutil.int_of_be32 s ~off:(plen + 4 + lp) in
      if String.length s <> plen + 8 + lp + lq then None
      else begin
        let q = Nat.of_bytes_be (String.sub s (plen + 8 + lp) lq) in
        if Nat.is_zero p || Nat.is_zero q then None else priv_of_primes p q
      end
    end
  end

(* --- MGF1 with SHA-1, for OAEP and full-domain hashing --- *)

let hash_len = Sha1.digest_size

(* dst[off, off + len) ← dst[off, off + len) xor MGF1(seed) for the seed
   src[soff, soff + slen): block i is SHA-1(seed ∥ be32 i).  Every block
   is hashed through [h], and [scratch] (24 bytes) holds the counter and
   then the block's digest.  The two ranges must not overlap. *)
let mgf1_xor (h : Sha1.ctx) (scratch : Bytes.t) ~(src : Bytes.t) ~(soff : int) ~(slen : int) (dst : Bytes.t)
    ~(off : int) ~(len : int) : unit =
  let counter = ref 0 and pos = ref 0 in
  while !pos < len do
    Sha1.reset h;
    Sha1.feed_bytes h src ~off:soff ~len:slen;
    Sfs_util.Bytesutil.put_be32 scratch ~off:0 !counter;
    Sha1.feed_bytes h scratch ~off:0 ~len:4;
    Sha1.digest_into h scratch ~off:4;
    for i = 0 to min hash_len (len - !pos) - 1 do
      let j = off + !pos + i in
      Bytes.set dst j (Char.chr (Char.code (Bytes.get dst j) lxor Char.code (Bytes.get scratch (4 + i))))
    done;
    pos := !pos + hash_len;
    incr counter
  done

(* --- Square roots mod n via CRT --- *)

(* The square root x^((p+1)/4) of x modulo the root's prime p, if x is
   a residue there: the root squared back must give x mod p. *)
let prime_root (r : root) (p : Nat.t) (x : Nat.t) : Nat.t option =
  let xp = Nat.rem x p in
  Nat.mont_pow r.ctx ~base:xp ~exp:r.exp;
  let root = Nat.mont_out r.ctx in
  Nat.mont_pow r.ctx ~base:root ~exp:Nat.two;
  if Nat.equal (Nat.mont_out r.ctx) xp then Some root else None

(* One square root of x modulo each prime, if x is a residue mod both. *)
let prime_roots (sk : priv) (x : Nat.t) : (Nat.t * Nat.t) option =
  match prime_root sk.p_root sk.p x with
  | None -> None
  | Some rp -> ( match prime_root sk.q_root sk.q x with None -> None | Some rq -> Some (rp, rq))

(* The root mod n = pq that is rp mod p and rq mod q. *)
let combine (sk : priv) (rp : Nat.t) (rq : Nat.t) : Nat.t =
  Modarith.crt ~m1_inv:sk.p_inv ~r1:rp ~m1:sk.p ~r2:rq ~m2:sk.q

(* --- Signatures --- *)

type signature = { root : Nat.t; negate : bool; double : bool }

(* Full-domain hash of a message to a value below n: expand with MGF1 to
   one byte less than the modulus, from the seed "rabin-fdh:" ∥
   SHA-1(message), all through one SHA-1 context. *)
let fdh_prefix = "rabin-fdh:"

let fdh (pk : pub) (message : string) : Nat.t =
  let plen = String.length fdh_prefix in
  let seed = Bytes.create (plen + hash_len) in
  Bytes.blit_string fdh_prefix 0 seed 0 plen;
  let h = Sha1.init () in
  Sha1.update h message;
  Sha1.digest_into h seed ~off:plen;
  let len = modulus_bytes pk - 1 in
  let out = Bytes.make len '\000' in
  mgf1_xor h (Bytes.create 24) ~src:seed ~soff:0 ~slen:(plen + hash_len) out ~off:0 ~len;
  let m = Nat.of_bytes_be (Bytes.unsafe_to_string out) in
  (* Zero is never coprime to n; nudge (cannot occur for real SHA-1). *)
  if Nat.is_zero m then Nat.one else m

let sign (sk : priv) (message : string) : signature =
  let n = sk.pub.n in
  let m = fdh sk.pub message in
  (* Apply the {1,2} tweak to reach Jacobi symbol +1. *)
  let double = Nat.jacobi m n <> 1 in
  let m1 =
    (* n is odd, so 2⁻¹ mod n = (n + 1) / 2. *)
    if double then Modarith.mulmod m (Nat.shift_right (Nat.add n Nat.one) 1) n else m
  in
  (* Apply the {1,-1} tweak to reach an actual residue: the Legendre
     symbol (m1/p) is 1 exactly for residues mod the prime p. *)
  let negate = Nat.jacobi m1 sk.p <> 1 in
  let m2 = if negate then Modarith.negmod m1 n else m1 in
  match prime_roots sk m2 with
  | Some (rp, rq) -> { root = combine sk rp rq; negate; double }
  | None ->
      (* m shares a factor with n: the signer's key is broken. *)
      failwith "Rabin.sign: message hash not invertible (degenerate key)"

let verify (pk : pub) (message : string) (s : signature) : bool =
  let n = pk.n in
  Nat.compare s.root n < 0
  &&
  let m = fdh pk message in
  let v = Modarith.mulmod s.root s.root n in
  let v = if s.negate then Modarith.negmod v n else v in
  let v = if s.double then Modarith.mulmod v Nat.two n else v in
  Nat.equal v (Nat.rem m n)

let signature_to_string (s : signature) : string =
  let r = Nat.to_bytes_be s.root in
  Printf.sprintf "rabin-sig:%c%c" (if s.negate then '1' else '0') (if s.double then '1' else '0')
  ^ Sfs_util.Bytesutil.be32_of_int (String.length r)
  ^ r

let signature_of_string (s : string) : signature option =
  let prefix_len = String.length "rabin-sig:xy" in
  if String.length s < prefix_len + 4 || not (String.starts_with ~prefix:"rabin-sig:" s) then None
  else
    let negate = s.[10] = '1' and double = s.[11] = '1' in
    let len = Sfs_util.Bytesutil.int_of_be32 s ~off:12 in
    if String.length s <> 16 + len then None
    else Some { root = Nat.of_bytes_be (String.sub s 16 len); negate; double }

(* --- Encryption (OAEP then squaring) --- *)

let max_plaintext (pk : pub) : int =
  let k = modulus_bytes pk in
  k - (2 * hash_len) - 3

(* OAEP encode into k-1 bytes (leading zero byte keeps the value < n):
     DB   = lhash ∥ 0x00.. ∥ 0x01 ∥ message
     X    = DB xor MGF1(seed)
     Y    = seed xor MGF1(X)
     EM   = 0x00 ∥ Y ∥ X
   EM is built and unmasked in one buffer: Y at [1, 1 + hash_len), X
   after it. *)
let lhash = Sha1.digest "rabin-oaep"

let oaep_encode (pk : pub) (rng : Prng.t) (message : string) : Nat.t =
  let k = modulus_bytes pk in
  let mlen = String.length message in
  if mlen > max_plaintext pk then invalid_arg "Rabin.encrypt: message too long";
  let db_len = k - 2 - hash_len in
  let em = Bytes.make (k - 1) '\000' in
  Bytes.blit_string lhash 0 em (1 + hash_len) hash_len;
  Bytes.set em (k - 2 - mlen) '\x01';
  Bytes.blit_string message 0 em (k - 1 - mlen) mlen;
  Bytes.blit_string (Prng.random_bytes rng hash_len) 0 em 1 hash_len;
  let h = Sha1.init () and scratch = Bytes.create 24 in
  mgf1_xor h scratch ~src:em ~soff:1 ~slen:hash_len em ~off:(1 + hash_len) ~len:db_len;
  mgf1_xor h scratch ~src:em ~soff:(1 + hash_len) ~slen:db_len em ~off:1 ~len:hash_len;
  Nat.of_bytes_be (Bytes.unsafe_to_string em)

let oaep_decode (pk : pub) (em : Nat.t) : string option =
  let k = modulus_bytes pk in
  (* EM is k-1 bytes with a zero first byte: below 2^(8(k-2)). *)
  if Nat.num_bits em > 8 * (k - 2) then None
  else begin
    let db_len = k - 2 - hash_len in
    let b = Bytes.of_string (Nat.to_bytes_be_padded ~width:(k - 1) em) in
    let h = Sha1.init () and scratch = Bytes.create 24 in
    (* seed = Y xor MGF1(X), then DB = X xor MGF1(seed), each in place. *)
    mgf1_xor h scratch ~src:b ~soff:(1 + hash_len) ~slen:db_len b ~off:1 ~len:hash_len;
    mgf1_xor h scratch ~src:b ~soff:1 ~slen:hash_len b ~off:(1 + hash_len) ~len:db_len;
    let label = Bytes.unsafe_of_string lhash in
    if not (Sfs_util.Bytesutil.ct_equal_sub label b ~off:(1 + hash_len) ~len:hash_len) then None
    else begin
      (* Scan the zero padding for the 0x01 separator. *)
      let rec find i =
        if i >= k - 1 then None
        else
          match Bytes.get b i with
          | '\x00' -> find (i + 1)
          | '\x01' -> Some (Bytes.sub_string b (i + 1) (k - 2 - i))
          | _ -> None
      in
      find (1 + (2 * hash_len))
    end
  end

(* The padded value must also be a usable Rabin plaintext: coprime to n.
   With random OAEP seeds a retry is effectively never needed, but we
   loop for completeness. *)
let encrypt (pk : pub) (rng : Prng.t) (message : string) : Nat.t =
  let rec go attempts =
    if attempts > 64 then failwith "Rabin.encrypt: could not pad (degenerate key)"
    else
      let m = oaep_encode pk rng message in
      if Nat.is_zero m || not (Nat.equal (Nat.gcd m pk.n) Nat.one) then go (attempts + 1)
      else Modarith.mulmod m m pk.n
  in
  go 0

(* The four roots in turn, (rp, rq), (rp, -rq), (-rp, rq), (-rp, -rq),
   stopping at the first OAEP accepts.  The last two are n minus the
   second and the first, so at most two roots take a CRT. *)
let decrypt (sk : priv) (c : Nat.t) : string option =
  match prime_roots sk (Nat.rem c sk.pub.n) with
  | None -> None
  | Some (rp, rq) -> (
      let n = sk.pub.n in
      let r1 = combine sk rp rq in
      match oaep_decode sk.pub r1 with
      | Some _ as m -> m
      | None -> (
          let r2 = combine sk rp (Modarith.negmod rq sk.q) in
          match oaep_decode sk.pub r2 with
          | Some _ as m -> m
          | None -> (
              match oaep_decode sk.pub (Modarith.negmod r2 n) with
              | Some _ as m -> m
              | None -> oaep_decode sk.pub (Modarith.negmod r1 n))))

(* --- Hybrid encryption for protocol payloads ---

   Key-negotiation messages encrypt key halves that can exceed the OAEP
   capacity; the standard construction encrypts a fresh ARC4 key and
   streams the rest. *)

let encrypt_blob (pk : pub) (rng : Prng.t) (blob : string) : string =
  let session = Prng.random_bytes rng 20 in
  let c = encrypt pk rng session in
  let cb = Nat.to_bytes_be_padded ~width:(modulus_bytes pk) c in
  let stream = Arc4.create session in
  let body = Arc4.encrypt stream blob in
  let tag = Mac.of_message ~key:session body in
  String.concat "" [ Sfs_util.Bytesutil.be32_of_int (String.length cb); cb; tag; body ]

let decrypt_blob (sk : priv) (s : string) : string option =
  if String.length s < 4 then None
  else begin
    let clen = Sfs_util.Bytesutil.int_of_be32 s ~off:0 in
    if String.length s < 4 + clen + Mac.mac_size then None
    else begin
      let c = Nat.of_bytes_be (String.sub s 4 clen) in
      match decrypt sk c with
      | None -> None
      | Some session ->
          let tag = String.sub s (4 + clen) Mac.mac_size in
          let body = String.sub s (4 + clen + Mac.mac_size) (String.length s - 4 - clen - Mac.mac_size) in
          if not (Mac.verify ~key:session ~tag body) then None
          else Some (Arc4.decrypt (Arc4.create session) body)
    end
  end
