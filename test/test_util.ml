open Sfs_util

let test_hex_roundtrip () =
  Testkit.check_string "hex" "00ff10ab" (Hex.encode "\x00\xff\x10\xab");
  Testkit.check_string "decode" "\x00\xff\x10\xab" (Hex.decode "00ff10ab");
  Testkit.check_string "decode upper" "\xde\xad" (Hex.decode "DEAD")

let test_hex_errors () =
  Alcotest.check_raises "odd" (Invalid_argument "Hex.decode: odd length") (fun () ->
      ignore (Hex.decode "abc"));
  Alcotest.check_raises "bad digit" (Invalid_argument "Hex.decode: bad hex digit") (fun () ->
      ignore (Hex.decode "zz"))

let test_base32_alphabet () =
  Testkit.check_int "length" 32 (String.length Base32.alphabet);
  List.iter
    (fun c -> Testkit.check_bool (Printf.sprintf "omits %c" c) false (String.contains Base32.alphabet c))
    [ 'l'; '1'; '0'; 'o' ];
  (* No duplicates. *)
  let seen = Hashtbl.create 32 in
  String.iter
    (fun c ->
      Testkit.check_bool "unique" false (Hashtbl.mem seen c);
      Hashtbl.add seen c ())
    Base32.alphabet

let test_base32_hostid_width () =
  (* A 20-byte HostID must encode to exactly 32 characters (section 2.2). *)
  let h = String.make 20 '\x5a' in
  Testkit.check_int "width" 32 (String.length (Base32.encode h))

let test_base32_known () =
  Testkit.check_string "zero byte" "22" (Base32.encode "\x00");
  Testkit.check_string "0xff" "zw" (Base32.encode "\xff");
  Testkit.check_string "empty" "" (Base32.encode "")

let test_base32_invalid () =
  Alcotest.check_raises "has l" (Invalid_argument "Base32.decode: bad character") (fun () ->
      ignore (Base32.decode "abl"));
  Alcotest.check_raises "bad char" (Invalid_argument "Base32.decode: bad character") (fun () ->
      ignore (Base32.decode "0"))

let test_bytesutil_ints () =
  Testkit.check_string "be32" "\x00\x00\x01\x02" (Bytesutil.be32_of_int 258);
  Testkit.check_int "be32 rt" 258 (Bytesutil.int_of_be32 "\x00\x00\x01\x02" ~off:0);
  let v = 0x0123456789abcdefL in
  let b = Bytes.create 8 in
  Bytesutil.put_be64 b ~off:0 v;
  Alcotest.(check int64) "be64 rt" v (Bytesutil.int64_of_be64 (Bytes.to_string b) ~off:0)

let test_bytesutil_misc () =
  Testkit.check_string "xor" "\x03" (Bytesutil.xor "\x01" "\x02");
  Testkit.check_bool "ct_equal eq" true (Bytesutil.ct_equal "abc" "abc");
  Testkit.check_bool "ct_equal ne" false (Bytesutil.ct_equal "abc" "abd");
  Testkit.check_bool "ct_equal len" false (Bytesutil.ct_equal "ab" "abc");
  let frame = Bytes.of_string "xxabcx" in
  let sub a ~off ~len = Bytesutil.ct_equal_sub (Bytes.of_string a) frame ~off ~len in
  Testkit.check_bool "ct_equal_sub eq" true (sub "abc" ~off:2 ~len:3);
  Testkit.check_bool "ct_equal_sub prefix" true (sub "abz" ~off:2 ~len:2);
  Testkit.check_bool "ct_equal_sub ne" false (sub "abd" ~off:2 ~len:3);
  Testkit.check_bool "ct_equal_sub past b" false (sub "abc" ~off:4 ~len:3);
  Testkit.check_bool "ct_equal_sub past a" false (sub "ab" ~off:2 ~len:3);
  Alcotest.(check (list string)) "chunks" [ "ab"; "cd"; "e" ] (Bytesutil.chunks ~size:2 "abcde");
  Alcotest.(check (list string)) "chunks empty" [] (Bytesutil.chunks ~size:2 "")

let props =
  let open QCheck in
  [
    Test.make ~count:500 ~name:"hex roundtrip" (string_gen Gen.char) (fun s -> Hex.decode (Hex.encode s) = s);
    Test.make ~count:500 ~name:"base32 roundtrip" (string_gen Gen.char) (fun s ->
        Base32.decode (Base32.encode s) = s);
    Test.make ~count:500 ~name:"base32 ordering-compatible length" (string_gen Gen.char) (fun s ->
        String.length (Base32.encode s) = (8 * String.length s + 4) / 5);
    Test.make ~count:500 ~name:"xor involutive" (pair (string_gen Gen.char) (string_gen Gen.char)) (fun (a, b) ->
        let n = min (String.length a) (String.length b) in
        Bytesutil.xor (Bytesutil.xor a b) b = String.sub a 0 n
        || n > String.length (Bytesutil.xor a b));
    Test.make ~count:500 ~name:"ct_equal matches (=)" (pair (string_gen Gen.char) (string_gen Gen.char))
      (fun (a, b) -> Bytesutil.ct_equal a b = (a = b));
  ]

let suite =
  ( "util",
    [
      Alcotest.test_case "hex roundtrip" `Quick test_hex_roundtrip;
      Alcotest.test_case "hex errors" `Quick test_hex_errors;
      Alcotest.test_case "base32 alphabet" `Quick test_base32_alphabet;
      Alcotest.test_case "base32 hostid width" `Quick test_base32_hostid_width;
      Alcotest.test_case "base32 known values" `Quick test_base32_known;
      Alcotest.test_case "base32 invalid input" `Quick test_base32_invalid;
      Alcotest.test_case "int encodings" `Quick test_bytesutil_ints;
      Alcotest.test_case "xor/ct_equal/chunks" `Quick test_bytesutil_misc;
    ]
    @ Testkit.to_alcotest props )
