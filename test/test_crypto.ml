open Sfs_crypto
module Nat = Sfs_bignum.Nat
module Modarith = Sfs_bignum.Modarith

(* --- SHA-1: FIPS 180-1 test vectors --- *)

let sha1_hex s = Sfs_util.Hex.encode (Sha1.digest s)

let test_sha1_vectors () =
  Testkit.check_string "empty" "da39a3ee5e6b4b0d3255bfef95601890afd80709" (sha1_hex "");
  Testkit.check_string "abc" "a9993e364706816aba3e25717850c26c9cd0d89d" (sha1_hex "abc");
  Testkit.check_string "two-block"
    "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
    (sha1_hex "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  Testkit.check_string "million a"
    "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
    (sha1_hex (String.make 1_000_000 'a'))

let test_sha1_incremental () =
  (* Chunked updates agree with one-shot digests at every split point. *)
  let msg = String.init 300 (fun i -> Char.chr (i land 0xff)) in
  let expect = Sha1.digest msg in
  List.iter
    (fun k ->
      let c = Sha1.init () in
      Sha1.update c (String.sub msg 0 k);
      Sha1.update c (String.sub msg k (String.length msg - k));
      Testkit.check_string (Printf.sprintf "split %d" k) (Sfs_util.Hex.encode expect)
        (Sfs_util.Hex.encode (Sha1.final c)))
    [ 0; 1; 55; 56; 63; 64; 65; 128; 300 ]

let test_sha1_paper_duplication () =
  (* The paper duplicates SHA-1's input for HostIDs; sanity-check that the
     duplicated digest differs from the plain one. *)
  let s = "HostInfo,server.example.com,key" in
  Testkit.check_bool "distinct" false (Sha1.digest s = Sha1.digest (s ^ s))

(* --- HMAC-SHA1: RFC 2202 test vectors --- *)

let test_hmac_vectors () =
  Testkit.check_string "rfc2202 case 1"
    "b617318655057264e28bc0b6fb378c8ef146be00"
    (Sfs_util.Hex.encode (Mac.hmac ~key:(String.make 20 '\x0b') "Hi There"));
  Testkit.check_string "rfc2202 case 2"
    "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"
    (Sfs_util.Hex.encode (Mac.hmac ~key:"Jefe" "what do ya want for nothing?"));
  Testkit.check_string "rfc2202 case 3"
    "125d7342b9ac11cd91a39af48aa17b4f63f175d3"
    (Sfs_util.Hex.encode (Mac.hmac ~key:(String.make 20 '\xaa') (String.make 50 '\xdd')));
  Testkit.check_string "rfc2202 long key"
    "aa4ae5e15272d00e95705637ce8a3b55ed402112"
    (Sfs_util.Hex.encode
       (Mac.hmac ~key:(String.make 80 '\xaa') "Test Using Larger Than Block-Size Key - Hash Key First"))

let test_mac_message () =
  let key = String.make 32 '\x42' in
  let tag = Mac.of_message ~key "hello" in
  Testkit.check_bool "verifies" true (Mac.verify ~key ~tag "hello");
  Testkit.check_bool "rejects other msg" false (Mac.verify ~key ~tag "hellp");
  Testkit.check_bool "rejects other key" false (Mac.verify ~key:(String.make 32 '\x43') ~tag "hello");
  (* Length is covered: a message with an embedded prefix must not verify
     under a tag for the prefix. *)
  Testkit.check_bool "length bound" false (Mac.verify ~key ~tag "hello world")

(* --- ARC4: classic reference vectors --- *)

let test_arc4_vectors () =
  (* Classic vector: key 0x0123456789abcdef, plaintext same 8 bytes. *)
  let key = Sfs_util.Hex.decode "0123456789abcdef" in
  let pt = Sfs_util.Hex.decode "0123456789abcdef" in
  Testkit.check_string "vector 1" "75b7878099e0c596"
    (Sfs_util.Hex.encode (Arc4.encrypt (Arc4.create key) pt));
  (* Keystream under the same key. *)
  Testkit.check_string "keystream" "7494c2e7104b0879"
    (Sfs_util.Hex.encode (Arc4.encrypt (Arc4.create key) (String.make 8 '\000')));
  (* Key 0xef012345, 10 zero bytes. *)
  Testkit.check_string "vector 3" "d6a141a7ec3c38dfbd61"
    (Sfs_util.Hex.encode (Arc4.encrypt (Arc4.create (Sfs_util.Hex.decode "ef012345")) (String.make 10 '\000')))

let test_arc4_spin () =
  (* A 20-byte key must not behave like its 16-byte prefix (the schedule
     spins once per 16 bytes). *)
  let k20 = String.init 20 (fun i -> Char.chr i) in
  let k16 = String.sub k20 0 16 in
  Testkit.check_bool "spin differs" false
    (Arc4.keystream (Arc4.create k20) 16 = Arc4.keystream (Arc4.create k16) 16);
  (* Stream is stateful: two successive reads differ. *)
  let t = Arc4.create k20 in
  Testkit.check_bool "advances" false (Arc4.keystream t 8 = Arc4.keystream t 8)

(* --- Blowfish: Eric Young's standard vectors --- *)

let bf_vector key pt ct =
  let t = Blowfish.create (Sfs_util.Hex.decode key) in
  Testkit.check_string ("enc " ^ key) ct
    (Sfs_util.Hex.encode (Blowfish.encrypt_block t (Sfs_util.Hex.decode pt)));
  Testkit.check_string ("dec " ^ key) pt
    (Sfs_util.Hex.encode (Blowfish.decrypt_block t (Sfs_util.Hex.decode ct)))

let test_blowfish_vectors () =
  bf_vector "0000000000000000" "0000000000000000" "4ef997456198dd78";
  bf_vector "ffffffffffffffff" "ffffffffffffffff" "51866fd5b85ecb8a";
  bf_vector "3000000000000000" "1000000000000001" "7d856f9a613063f2";
  bf_vector "1111111111111111" "1111111111111111" "2466dd878b963c9d";
  bf_vector "0123456789abcdef" "1111111111111111" "61f9c3802281b096";
  bf_vector "fedcba9876543210" "0123456789abcdef" "0aceab0fc6a0a28d";
  bf_vector "7ca110454a1a6e57" "01a1d6d039776742" "59c68245eb05282b"

let test_blowfish_cbc () =
  let t = Blowfish.create (String.make 20 '\x5f') in
  let iv = "initvect" in
  let pt = "0123456789abcdef0123456789abcdef" in
  let buf = Bytes.of_string ("<<" ^ pt ^ ">>") in
  Blowfish.encrypt_cbc_into t ~iv buf ~off:2 ~len:32;
  (* CBC by definition: each block is E(plaintext xor the previous
     ciphertext block, or the IV for the first). *)
  let c1 = Blowfish.encrypt_block t (Sfs_util.Bytesutil.xor (String.sub pt 0 8) iv) in
  let c2 = Blowfish.encrypt_block t (Sfs_util.Bytesutil.xor (String.sub pt 8 8) c1) in
  Testkit.check_string "first block" c1 (Bytes.sub_string buf 2 8);
  Testkit.check_string "second block" c2 (Bytes.sub_string buf 10 8);
  Testkit.check_string "outside the range" "<<>>"
    (Bytes.sub_string buf 0 2 ^ Bytes.sub_string buf 34 2);
  Blowfish.decrypt_cbc_into t ~iv buf ~off:2 ~len:32;
  Testkit.check_string "cbc roundtrip" ("<<" ^ pt ^ ">>") (Bytes.to_string buf);
  (* Equal plaintext blocks must encrypt differently under CBC. *)
  let b2 = Bytes.make 16 'A' in
  Blowfish.encrypt_cbc_into t ~iv b2 ~off:0 ~len:16;
  Testkit.check_bool "blocks differ" false (Bytes.sub b2 0 8 = Bytes.sub b2 8 8);
  Alcotest.check_raises "unaligned" (Invalid_argument "Blowfish.encrypt_cbc_into: not block-aligned")
    (fun () -> Blowfish.encrypt_cbc_into t ~iv (Bytes.of_string "short") ~off:0 ~len:5)

(* --- Eksblowfish --- *)

let test_eksblowfish () =
  let salt = String.make 16 '\x01' in
  let h1 = Eksblowfish.hash ~cost:2 ~salt "password" in
  Testkit.check_int "size" 24 (String.length h1);
  Testkit.check_string "deterministic" (Sfs_util.Hex.encode h1)
    (Sfs_util.Hex.encode (Eksblowfish.hash ~cost:2 ~salt "password"));
  Testkit.check_bool "password matters" false (h1 = Eksblowfish.hash ~cost:2 ~salt "passwore");
  Testkit.check_bool "salt matters" false
    (h1 = Eksblowfish.hash ~cost:2 ~salt:(String.make 16 '\x02') "password");
  Testkit.check_bool "cost matters" false (h1 = Eksblowfish.hash ~cost:3 ~salt "password")

let test_eksblowfish_cost_curve () =
  (* Doubling the cost parameter should roughly double the work; verify
     monotonic growth in wall time. *)
  let salt = String.make 16 '\x07' in
  let time cost =
    let t0 = Sys.time () in
    ignore (Eksblowfish.hash ~cost ~salt "timing-probe");
    Sys.time () -. t0
  in
  let t4 = time 4 and t6 = time 6 in
  Testkit.check_bool "cost 6 slower than cost 4" true (t6 > t4)

(* --- PRNG --- *)

let test_prng () =
  let g1 = Prng.create [ "seed-a" ] in
  let g2 = Prng.create [ "seed-a" ] in
  let g3 = Prng.create [ "seed-b" ] in
  Testkit.check_string "deterministic" (Prng.random_bytes g1 40) (Prng.random_bytes g2 40);
  Testkit.check_bool "seed matters" false (Prng.random_bytes (Prng.create [ "seed-a" ]) 40 = Prng.random_bytes g3 40);
  let g = Prng.create [ "x" ] in
  Testkit.check_bool "stream advances" false (Prng.random_bytes g 20 = Prng.random_bytes g 20);
  (* add_entropy perturbs the stream *)
  let ga = Prng.create [ "y" ] and gb = Prng.create [ "y" ] in
  Prng.add_entropy ga "keystroke";
  Testkit.check_bool "entropy matters" false (Prng.random_bytes ga 20 = Prng.random_bytes gb 20);
  (* random_below respects its bound *)
  let bound = Nat.of_int 1000 in
  for _ = 1 to 100 do
    Testkit.check_bool "below bound" true (Nat.compare (Prng.random_below g ~bound) bound < 0)
  done;
  (* partial-block pool drains correctly: many odd-size reads of one
     stream equal one big read of an identically seeded stream *)
  let gc = Prng.create [ "z" ] and gd = Prng.create [ "z" ] in
  let parts = List.map (Prng.random_bytes gc) [ 3; 7; 1; 25; 4 ] in
  Testkit.check_string "pool consistency" (Prng.random_bytes gd 40) (String.concat "" parts)

(* Known answers for the generator and the key search, pinned before
   either moved to in-place buffers: the SHA-1 of an interleaved stream
   of every draw kind from one seed, the public-key fingerprints of two
   seeded keys, and three seeded primes.  A change in how the generator
   steps, pools, masks or rejects, or in how the prime search consumes
   its draws, fails here by name. *)
let test_prng_known_answers () =
  let g = Prng.create [ "prng-kat" ] in
  let h = Sha1.init () in
  for i = 0 to 39 do
    Sha1.update h (Prng.random_bytes g (i mod 23));
    Sha1.update h (Nat.to_hex (Prng.random_nat g ~bits:(1 + (i * 37 mod 300))));
    Sha1.update h (string_of_int (Prng.random_int g (1 + (i * 7919))));
    Sha1.update h (Nat.to_hex (Prng.random_below g ~bound:(Nat.of_string "1000000000000000000000007")));
    if i mod 9 = 4 then Prng.add_entropy g (string_of_int i)
  done;
  Testkit.check_string "interleaved stream sha1" "f5691c6db734bc7b235e927d0fed40b2bff839b0"
    (Sfs_util.Hex.encode (Sha1.final h));
  List.iter
    (fun (bits, want) ->
      let sk = Rabin.generate ~bits (Prng.create [ "prng-kat-key"; string_of_int bits ]) in
      Testkit.check_string (Printf.sprintf "rabin-%d fingerprint" bits) want
        (Sfs_util.Hex.encode (Rabin.pub_fingerprint sk.Rabin.pub)))
    [
      (384, "dde22a87a2fa54aafea1021d794797a4c77f2176");
      (512, "faf24d6c5365b6b96277ca94ed317ae99db372c3");
    ];
  List.iter
    (fun (label, congruence, want) ->
      let g = Prng.create [ "prng-kat-prime"; label ] in
      let rand_bits b = Prng.random_nat g ~bits:b in
      Testkit.check_string ("prime " ^ label) want
        (Nat.to_hex (Sfs_bignum.Prime.generate ?congruence ~rand_bits 160)))
    [
      ("3 mod 8", Some (3, 8), "fa515f091fd50f030f90163e0ae6456f2bb607c3");
      ("7 mod 8", Some (7, 8), "f6eafc7534a83d905886aaab130105d53a939287");
      ("any", None, "8ea0dbad5f61931baccae60725342a2bf13aa1cf");
    ]

(* --- Rabin-Williams --- *)

let test_rng = Prng.create [ "rabin-test-rng" ]
let test_key = lazy (Rabin.generate ~bits:512 test_rng)

let test_rabin_keygen () =
  let sk = Lazy.force test_key in
  let eight = Nat.of_int 8 in
  Alcotest.(check (option int)) "p = 3 mod 8" (Some 3) (Nat.to_int_opt (Nat.rem sk.Rabin.p eight));
  Alcotest.(check (option int)) "q = 7 mod 8" (Some 7) (Nat.to_int_opt (Nat.rem sk.Rabin.q eight));
  Testkit.check_bool "n = pq" true (Nat.equal sk.Rabin.pub.Rabin.n (Nat.mul sk.Rabin.p sk.Rabin.q))

let test_rabin_sign_verify () =
  let sk = Lazy.force test_key in
  let s = Rabin.sign sk "attack at dawn" in
  Testkit.check_bool "verifies" true (Rabin.verify sk.Rabin.pub "attack at dawn" s);
  Testkit.check_bool "message bound" false (Rabin.verify sk.Rabin.pub "attack at dusk" s);
  (* Signature serialization roundtrip. *)
  (match Rabin.signature_of_string (Rabin.signature_to_string s) with
  | Some s' -> Testkit.check_bool "serialized verifies" true (Rabin.verify sk.Rabin.pub "attack at dawn" s')
  | None -> Alcotest.fail "signature roundtrip");
  (* A tampered root must not verify. *)
  let bad = { s with Rabin.root = Nat.add s.Rabin.root Nat.one } in
  Testkit.check_bool "tampered root" false (Rabin.verify sk.Rabin.pub "attack at dawn" bad);
  (* Wrong key must not verify. *)
  let other = Rabin.generate ~bits:512 test_rng in
  Testkit.check_bool "wrong key" false (Rabin.verify other.Rabin.pub "attack at dawn" s)

let test_rabin_tweaks () =
  (* Across several messages both tweak bits should occur: each has
     probability 1/2 per message. *)
  let sk = Lazy.force test_key in
  let sigs = List.init 16 (fun i -> Rabin.sign sk (Printf.sprintf "msg %d" i)) in
  Testkit.check_bool "some negate" true (List.exists (fun s -> s.Rabin.negate) sigs);
  Testkit.check_bool "some not negate" true (List.exists (fun s -> not s.Rabin.negate) sigs);
  Testkit.check_bool "some double" true (List.exists (fun s -> s.Rabin.double) sigs);
  Testkit.check_bool "some not double" true (List.exists (fun s -> not s.Rabin.double) sigs);
  List.iteri
    (fun i s ->
      Testkit.check_bool (Printf.sprintf "verify %d" i) true
        (Rabin.verify sk.Rabin.pub (Printf.sprintf "msg %d" i) s))
    sigs

let test_rabin_encrypt () =
  let sk = Lazy.force test_key in
  let pk = sk.Rabin.pub in
  let msg = "self-cert path" in
  let c = Rabin.encrypt pk test_rng msg in
  Alcotest.(check (option string)) "decrypts" (Some msg) (Rabin.decrypt sk c);
  (* Probabilistic: same message encrypts differently. *)
  Testkit.check_bool "probabilistic" false (Nat.equal c (Rabin.encrypt pk test_rng msg));
  (* Tampered ciphertext decrypts to None, not garbage. *)
  Alcotest.(check (option string)) "tamper" None (Rabin.decrypt sk (Nat.add c Nat.one));
  Alcotest.(check (option string)) "empty message" (Some "") (Rabin.decrypt sk (Rabin.encrypt pk test_rng ""));
  let maxm = String.make (Rabin.max_plaintext pk) 'm' in
  Alcotest.(check (option string)) "max length" (Some maxm) (Rabin.decrypt sk (Rabin.encrypt pk test_rng maxm));
  Alcotest.check_raises "too long" (Invalid_argument "Rabin.encrypt: message too long") (fun () ->
      ignore (Rabin.encrypt pk test_rng (maxm ^ "x")))

let test_rabin_blob () =
  let sk = Lazy.force test_key in
  let pk = sk.Rabin.pub in
  let blob = String.init 5000 (fun i -> Char.chr (i land 0xff)) in
  let c = Rabin.encrypt_blob pk test_rng blob in
  Alcotest.(check (option string)) "roundtrip" (Some blob) (Rabin.decrypt_blob sk c);
  (* Flipping any byte of the body is detected by the MAC. *)
  let tampered = Bytes.of_string c in
  let last = Bytes.length tampered - 1 in
  Bytes.set tampered last (Char.chr (Char.code (Bytes.get tampered last) lxor 1));
  Alcotest.(check (option string)) "tampered" None (Rabin.decrypt_blob sk (Bytes.to_string tampered))

let test_rabin_pub_serialization () =
  let sk = Lazy.force test_key in
  let pk = sk.Rabin.pub in
  (match Rabin.pub_of_string (Rabin.pub_to_string pk) with
  | Some pk' -> Testkit.check_bool "roundtrip" true (Rabin.pub_equal pk pk')
  | None -> Alcotest.fail "pub roundtrip");
  Testkit.check_bool "garbage rejected" true (Rabin.pub_of_string "rabin-pk:junk" = None);
  Testkit.check_bool "truncated rejected" true
    (Rabin.pub_of_string (String.sub (Rabin.pub_to_string pk) 0 20) = None)

let test_rabin_priv_serialization () =
  let sk = Lazy.force test_key in
  (match Rabin.priv_of_string (Rabin.priv_to_string sk) with
  | Some sk' ->
      Testkit.check_bool "same primes" true (Nat.equal sk.Rabin.p sk'.Rabin.p && Nat.equal sk.Rabin.q sk'.Rabin.q);
      Testkit.check_bool "crt coefficient kept" true (Nat.equal sk.Rabin.p_inv sk'.Rabin.p_inv);
      Testkit.check_bool "p * p_inv = 1 mod q" true
        (Nat.equal Nat.one (Modarith.mulmod sk'.Rabin.p sk'.Rabin.p_inv sk'.Rabin.q))
  | None -> Alcotest.fail "priv roundtrip");
  (* p = q has no CRT coefficient: the key is refused, not built broken. *)
  let twin = Rabin.priv_to_string { sk with Rabin.q = sk.Rabin.p } in
  Testkit.check_bool "p = q rejected" true (Rabin.priv_of_string twin = None)

(* Signing is pinned to its output before the CRT coefficient moved
   into the key and the residue test became a Legendre symbol: the same
   seeded key signs the same messages to the same bytes. *)
let test_rabin_sign_pinned () =
  let sk = Rabin.generate ~bits:512 (Prng.create [ "rabin-sign-pin" ]) in
  let sigs =
    List.init 16 (fun i -> Rabin.signature_to_string (Rabin.sign sk (Printf.sprintf "msg %d" i)))
  in
  Testkit.check_string "signatures sha1" "14ecd69a4cf72ab2fcead889e1b85e4f10f07f89"
    (sha1_hex (String.concat "" sigs))

(* Allocation guards: about 4x the measured figure (512-bit key:
   sign 11.6 KB, decrypt 17.0 KB), well under the 176 KB and 93 KB a
   call cost while each recomputed p⁻¹ mod q. *)
let test_rabin_alloc () =
  let sk = Lazy.force test_key in
  let c = Rabin.encrypt sk.Rabin.pub test_rng "twenty byte session!" in
  ignore (Rabin.sign sk "warm-up");
  Testkit.check_alloc_under "sign" ~bound:48_000 (fun () -> ignore (Rabin.sign sk "benchmark message"));
  Testkit.check_alloc_under "decrypt" ~bound:68_000 (fun () -> ignore (Rabin.decrypt sk c))

(* Allocation guards for key generation, about 1.5x the reading once
   the generator stepped in place and the prime search, Miller-Rabin
   and the inverse ran on limb buffers (readings 128 B, 96 B, 632 B and
   128 KB, the first two mostly the 96 B a reading costs; before, in
   the same order: 1,392 B, 632 B, 72 KB and 1.2 MB). *)
let test_keygen_alloc () =
  let g = Prng.create [ "keygen-alloc" ] in
  ignore (Prng.random_bytes g 7);
  Testkit.check_alloc_under "random_bytes 20" ~bound:192 (fun () -> ignore (Prng.random_bytes g 20));
  Testkit.check_alloc_under "random_int" ~bound:144 (fun () -> ignore (Prng.random_int g 1_000_000));
  let rand_bits b = Prng.random_nat g ~bits:b in
  let m = Sfs_bignum.Prime.generate ~rand_bits 256 and x = rand_bits 256 in
  Testkit.check_alloc_under "256-bit inverse" ~bound:960 (fun () -> ignore (Modarith.inverse ~x ~modulus:m));
  Testkit.check_alloc_under "512-bit key" ~bound:192_000 (fun () ->
      ignore (Rabin.generate ~bits:512 (Prng.create [ "keygen-alloc-key" ])))

(* The one-shot MAC keys two fresh contexts and builds no reusable
   schedule: no heavier than the 1,056 B it cost when each call built a
   schedule and cloned both of its contexts. *)
let test_mac_one_shot_alloc () =
  let key = String.make 32 'k' in
  List.iter
    (fun n ->
      let msg = String.make n 'm' in
      Testkit.check_alloc_under (Printf.sprintf "of_message %d B" n) ~bound:1_056 (fun () ->
          ignore (Mac.of_message ~key msg)))
    [ 64; 8192 ]

(* --- SRP --- *)

let srp_rng = Prng.create [ "srp-test-rng" ]
let srp_cost = 2

let run_srp ~password ~attempt =
  let grp = Srp.default_group in
  let v = Srp.make_verifier ~cost:srp_cost grp srp_rng ~user:"alice" ~password in
  let client = Srp.client_start grp srp_rng ~user:"alice" ~password:attempt in
  let server = Srp.server_start grp srp_rng v in
  match
    ( Srp.client_finish client ~salt:v.Srp.salt ~cost:v.Srp.cost ~b_pub:(Srp.server_pub server),
      Srp.server_finish server ~a_pub:(Srp.client_pub client) )
  with
  | Some cs, Some ss -> Some (cs, ss)
  | _ -> None

let test_srp_agreement () =
  match run_srp ~password:"hunter2" ~attempt:"hunter2" with
  | Some (cs, ss) ->
      Testkit.check_string "shared key" (Sfs_util.Hex.encode cs.Srp.key) (Sfs_util.Hex.encode ss.Srp.key);
      Testkit.check_bool "client proof accepted" true (Srp.check_client_proof ss ~proof:cs.Srp.proof)
  | None -> Alcotest.fail "srp handshake failed"

let test_srp_wrong_password () =
  match run_srp ~password:"hunter2" ~attempt:"hunter3" with
  | Some (cs, ss) ->
      Testkit.check_bool "keys differ" false (cs.Srp.key = ss.Srp.key);
      Testkit.check_bool "proof rejected" false (Srp.check_client_proof ss ~proof:cs.Srp.proof)
  | None -> Alcotest.fail "srp handshake failed"

let test_srp_server_proof () =
  match run_srp ~password:"pw" ~attempt:"pw" with
  | Some (cs, ss) ->
      let grp = Srp.default_group in
      let proof = Srp.server_proof grp ~a_pub:Nat.one ss in
      Testkit.check_bool "wrong a_pub rejected" false
        (Srp.check_server_proof grp ~a_pub:Nat.two cs ~proof)
  | None -> Alcotest.fail "srp handshake failed"

let test_srp_degenerate () =
  let grp = Srp.default_group in
  let v = Srp.make_verifier ~cost:srp_cost grp srp_rng ~user:"bob" ~password:"pw" in
  let server = Srp.server_start grp srp_rng v in
  (* A ≡ 0 (mod N) lets an attacker force S = 0; must be rejected. *)
  Testkit.check_bool "A=0 rejected" true (Srp.server_finish server ~a_pub:Nat.zero = None);
  Testkit.check_bool "A=N rejected" true (Srp.server_finish server ~a_pub:grp.Srp.n = None);
  let client = Srp.client_start grp srp_rng ~user:"bob" ~password:"pw" in
  Testkit.check_bool "B=0 rejected" true
    (Srp.client_finish client ~salt:v.Srp.salt ~cost:v.Srp.cost ~b_pub:Nat.zero = None)

let test_srp_verifier_no_password_equivalent () =
  (* The verifier is not password-equivalent: a client using v directly
     as its password must not reach the same key. *)
  let grp = Srp.default_group in
  let v = Srp.make_verifier ~cost:srp_cost grp srp_rng ~user:"carol" ~password:"secret" in
  let client = Srp.client_start grp srp_rng ~user:"carol" ~password:(Nat.to_hex v.Srp.v) in
  let server = Srp.server_start grp srp_rng v in
  match
    ( Srp.client_finish client ~salt:v.Srp.salt ~cost:v.Srp.cost ~b_pub:(Srp.server_pub server),
      Srp.server_finish server ~a_pub:(Srp.client_pub client) )
  with
  | Some cs, Some ss -> Testkit.check_bool "verifier is not a password" false (cs.Srp.key = ss.Srp.key)
  | _ -> ()

(* --- Properties --- *)

(* Byte-at-a-time ARC4 output via the documented reference step; the
   block entry points ([skip], [keystream_into], [encrypt_into],
   [xor_into]) must agree with it over any interleaving. *)
let arc4_ref_bytes (t : Arc4.t) (n : int) : string =
  let b = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.set b i (Char.chr (Arc4.next_byte t))
  done;
  Bytes.to_string b

let arc4_ref_xor (t : Arc4.t) (msg : string) : string =
  let b = Bytes.create (String.length msg) in
  for i = 0 to String.length msg - 1 do
    Bytes.set b i (Char.chr (Char.code msg.[i] lxor Arc4.next_byte t))
  done;
  Bytes.to_string b

let props =
  let open QCheck in
  let sk = Lazy.force test_key in
  [
    Test.make ~count:50 ~name:"arc4 encrypt/decrypt inverse"
      (pair (string_gen_of_size (Gen.int_range 1 40) Gen.char) (string_gen Gen.char))
      (fun (key, msg) ->
        assume (key <> "");
        Arc4.decrypt (Arc4.create key) (Arc4.encrypt (Arc4.create key) msg) = msg);
    Test.make ~count:20 ~name:"blowfish block inverse"
      (pair (string_gen_of_size (Gen.int_range 1 56) Gen.char) (string_gen_of_size (Gen.return 8) Gen.char))
      (fun (key, block) ->
        assume (key <> "");
        let t = Blowfish.create key in
        Blowfish.decrypt_block t (Blowfish.encrypt_block t block) = block);
    Test.make ~count:20 ~name:"rabin sign/verify" (string_gen Gen.char) (fun msg ->
        Rabin.verify sk.Rabin.pub msg (Rabin.sign sk msg));
    Test.make ~count:20 ~name:"rabin encrypt/decrypt"
      (string_gen_of_size (Gen.int_range 0 20) Gen.char)
      (fun msg -> Rabin.decrypt sk (Rabin.encrypt sk.Rabin.pub test_rng msg) = Some msg);
    Test.make ~count:20 ~name:"hmac distinguishes keys"
      (triple
         (string_gen_of_size (Gen.return 20) Gen.char)
         (string_gen_of_size (Gen.return 20) Gen.char)
         (string_gen Gen.char))
      (fun (k1, k2, msg) -> k1 = k2 || Mac.hmac ~key:k1 msg <> Mac.hmac ~key:k2 msg);
    Test.make ~count:50 ~name:"prng random_below bound" (int_range 1 1_000_000) (fun bound ->
        Prng.random_int test_rng bound < bound);
    (* The channel's fast path is exactly these block ops, so they must
       track the one-byte reference over any interleaving: the same
       stream position must yield the same bytes whether consumed by
       skip, keystream, in-place xor, or string-to-buffer xor. *)
    Test.make ~count:100 ~name:"arc4 block ops = byte-at-a-time reference"
      (pair
         (string_gen_of_size (Gen.int_range 1 40) Gen.char)
         (list_of_size (Gen.int_range 1 12) (pair (int_range 0 3) (int_range 0 120))))
      (fun (key, ops) ->
        assume (key <> "");
        let fast = Arc4.create key and slow = Arc4.create key in
        List.for_all
          (fun (op, n) ->
            let msg = String.init n (fun i -> Char.chr ((i * 7 + n) land 0xff)) in
            match op with
            | 0 -> Arc4.encrypt fast msg = arc4_ref_xor slow msg
            | 1 -> Arc4.keystream fast n = arc4_ref_bytes slow n
            | 2 ->
                Arc4.skip fast n;
                ignore (arc4_ref_bytes slow n);
                true
            | _ ->
                let dst = Bytes.make (n + 3) '\xee' in
                Arc4.xor_into fast ~src:msg ~src_off:0 ~dst ~dst_off:3 ~len:n;
                Bytes.sub_string dst 3 n = arc4_ref_xor slow msg)
          ops);
    (* A schedule is pure precomputation, and re-keying it in place
       forgets the old key completely: one schedule, built under a
       first key (over a block long, it takes the digest-the-key
       branch) and then re-keyed before each message, gives the
       one-shot tags — and verify_into accepts them and nothing else. *)
    Test.make ~count:100 ~name:"cached hmac schedule = one-shot hmac"
      (pair
         (string_gen_of_size (Gen.int_range 0 100) Gen.char)
         (small_list
            (pair
               (string_gen_of_size (Gen.int_range 0 64) Gen.char)
               (string_gen_of_size (Gen.int_range 0 200) Gen.char))))
      (fun (key0, msgs) ->
        let s = Mac.schedule ~key:key0 in
        let tag_ok key m =
          let n = String.length m in
          let plain = Bytes.create (n + Mac.mac_size) in
          Bytes.blit_string m 0 plain 0 n;
          Mac.mac_into s plain ~off:0 ~len:n ~dst:plain ~dst_off:n;
          let frame = Bytes.create (4 + n + Mac.mac_size) in
          Sfs_util.Bytesutil.put_be32 frame ~off:0 n;
          Bytes.blit_string m 0 frame 4 n;
          Mac.mac_into s frame ~off:0 ~len:(4 + n) ~dst:frame ~dst_off:(4 + n);
          let framed_tag = Bytes.sub_string frame (4 + n) Mac.mac_size in
          let accepted = Mac.verify_into s frame ~off:0 ~len:(4 + n) ~tag_off:(4 + n) in
          Bytes.set frame (4 + n) (Char.chr (Char.code (Bytes.get frame (4 + n)) lxor 1));
          Bytes.sub_string plain n Mac.mac_size = Mac.hmac ~key m
          && framed_tag = Mac.of_message ~key m
          && Mac.verify ~key ~tag:framed_tag m
          && accepted
          && not (Mac.verify_into s frame ~off:0 ~len:(4 + n) ~tag_off:(4 + n))
        in
        tag_ok key0 "first message"
        && List.for_all
             (fun (key, m) ->
               Mac.rekey s (Bytes.of_string key) ~off:0 ~len:(String.length key);
               tag_ok key m)
             msgs);
    (* mac_into over a frame already carrying its length word equals
       of_message over the bare plaintext — the channel depends on it. *)
    Test.make ~count:100 ~name:"mac_into on framed bytes = of_message"
      (pair
         (string_gen_of_size (Gen.int_range 0 64) Gen.char)
         (string_gen_of_size (Gen.int_range 0 300) Gen.char))
      (fun (key, msg) ->
        let n = String.length msg in
        let frame = Bytes.create (4 + n + Mac.mac_size) in
        Sfs_util.Bytesutil.put_be32 frame ~off:0 n;
        Bytes.blit_string msg 0 frame 4 n;
        let s = Mac.schedule ~key in
        Mac.mac_into s frame ~off:0 ~len:(4 + n) ~dst:frame ~dst_off:(4 + n);
        Bytes.sub_string frame (4 + n) Mac.mac_size = Mac.of_message ~key msg);
    (* feed_bytes/digest_into (the no-copy entry points) must agree with
       the string one-shot at every split, offset and destination. *)
    Test.make ~count:200 ~name:"sha1 feed_bytes/digest_into = digest"
      (pair (string_gen_of_size (Gen.int_range 0 300) Gen.char) (int_range 0 300))
      (fun (msg, split) ->
        let split = min split (String.length msg) in
        let c = Sha1.init () in
        let b = Bytes.of_string msg in
        Sha1.feed_bytes c b ~off:0 ~len:split;
        Sha1.feed_bytes c b ~off:split ~len:(String.length msg - split);
        let out = Bytes.make (Sha1.digest_size + 3) '\xaa' in
        Sha1.digest_into c out ~off:3;
        Bytes.sub_string out 3 Sha1.digest_size = Sha1.digest msg);
  ]

let test_srp_group_generation () =
  (* Fresh (tiny) safe-prime group: p = 2q+1, p = 3 (mod 8), g = 2. *)
  let g = Srp.generate_group srp_rng ~bits:48 in
  let p = g.Srp.n in
  Testkit.check_int "width" 48 (Nat.num_bits p);
  Alcotest.(check (option int)) "p mod 8" (Some 3) (Nat.to_int_opt (Nat.rem p (Nat.of_int 8)));
  let q = Nat.shift_right (Nat.sub p Nat.one) 1 in
  let rand_bits b = Prng.random_nat srp_rng ~bits:b in
  Testkit.check_bool "p prime" true (Sfs_bignum.Prime.is_probably_prime ~rand_bits p);
  Testkit.check_bool "q prime" true (Sfs_bignum.Prime.is_probably_prime ~rand_bits q);
  (* And the default group checks out too. *)
  let d = Srp.default_group.Srp.n in
  Testkit.check_int "default width" 512 (Nat.num_bits d);
  Testkit.check_bool "default prime" true (Sfs_bignum.Prime.is_probably_prime ~rand_bits d)

let suite =
  ( "crypto",
    [
      Alcotest.test_case "sha1 vectors" `Quick test_sha1_vectors;
      Alcotest.test_case "sha1 incremental" `Quick test_sha1_incremental;
      Alcotest.test_case "sha1 duplication" `Quick test_sha1_paper_duplication;
      Alcotest.test_case "hmac vectors" `Quick test_hmac_vectors;
      Alcotest.test_case "traffic mac" `Quick test_mac_message;
      Alcotest.test_case "arc4 vectors" `Quick test_arc4_vectors;
      Alcotest.test_case "arc4 20-byte spin" `Quick test_arc4_spin;
      Alcotest.test_case "blowfish vectors" `Quick test_blowfish_vectors;
      Alcotest.test_case "blowfish cbc" `Quick test_blowfish_cbc;
      Alcotest.test_case "eksblowfish" `Quick test_eksblowfish;
      Alcotest.test_case "eksblowfish cost curve" `Slow test_eksblowfish_cost_curve;
      Alcotest.test_case "prng" `Quick test_prng;
      Alcotest.test_case "prng known answers" `Quick test_prng_known_answers;
      Alcotest.test_case "rabin keygen" `Quick test_rabin_keygen;
      Alcotest.test_case "rabin sign/verify" `Quick test_rabin_sign_verify;
      Alcotest.test_case "rabin tweak bits" `Quick test_rabin_tweaks;
      Alcotest.test_case "rabin encryption" `Quick test_rabin_encrypt;
      Alcotest.test_case "rabin hybrid blob" `Quick test_rabin_blob;
      Alcotest.test_case "rabin pub serialization" `Quick test_rabin_pub_serialization;
      Alcotest.test_case "rabin priv serialization" `Quick test_rabin_priv_serialization;
      Alcotest.test_case "rabin signatures pinned" `Quick test_rabin_sign_pinned;
      Alcotest.test_case "rabin allocation" `Quick test_rabin_alloc;
      Alcotest.test_case "key generation allocation" `Quick test_keygen_alloc;
      Alcotest.test_case "mac one-shot allocation" `Quick test_mac_one_shot_alloc;
      Alcotest.test_case "srp agreement" `Quick test_srp_agreement;
      Alcotest.test_case "srp wrong password" `Quick test_srp_wrong_password;
      Alcotest.test_case "srp server proof" `Quick test_srp_server_proof;
      Alcotest.test_case "srp degenerate values" `Quick test_srp_degenerate;
      Alcotest.test_case "srp verifier leak" `Quick test_srp_verifier_no_password_equivalent;
      Alcotest.test_case "srp group generation" `Slow test_srp_group_generation;
    ]
    @ Testkit.to_alcotest props )
