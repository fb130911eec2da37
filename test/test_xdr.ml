module Xdr = Sfs_xdr.Xdr
module Sunrpc = Sfs_xdr.Sunrpc

let test_primitives () =
  let s =
    Xdr.encode
      (fun e () ->
        Xdr.enc_uint32 e 7;
        Xdr.enc_uint64 e 0x1122334455667788L;
        Xdr.enc_bool e true;
        Xdr.enc_string e "hello";
        Xdr.enc_option e Xdr.enc_uint32 (Some 9);
        Xdr.enc_option e Xdr.enc_uint32 None;
        Xdr.enc_array e Xdr.enc_uint32 [ 1; 2; 3 ])
      ()
  in
  match
    Xdr.run s (fun d ->
        let a = Xdr.dec_uint32 d in
        let c = Xdr.dec_uint64 d in
        let t = Xdr.dec_bool d in
        let str = Xdr.dec_string d in
        let o1 = Xdr.dec_option d Xdr.dec_uint32 in
        let o2 = Xdr.dec_option d Xdr.dec_uint32 in
        let l = Xdr.dec_array d Xdr.dec_uint32 in
        (a, c, t, str, o1, o2, l))
  with
  | Ok (a, c, t, str, o1, o2, l) ->
      Testkit.check_int "uint32" 7 a;
      Alcotest.(check int64) "uint64" 0x1122334455667788L c;
      Testkit.check_bool "bool" true t;
      Testkit.check_string "string" "hello" str;
      Alcotest.(check (option int)) "some" (Some 9) o1;
      Alcotest.(check (option int)) "none" None o2;
      Alcotest.(check (list int)) "array" [ 1; 2; 3 ] l
  | Result.Error e -> Alcotest.fail e

let test_padding () =
  (* Opaque data pads to 4-byte multiples. *)
  let s = Xdr.encode Xdr.enc_opaque "abcde" in
  Testkit.check_int "padded length" 12 (String.length s);
  Testkit.check_string "roundtrip" "abcde"
    (match Xdr.run s (fun d -> Xdr.dec_opaque d) with Ok v -> v | Result.Error e -> Alcotest.fail e)

let test_errors () =
  Testkit.check_bool "truncated" true (Result.is_error (Xdr.run "\x00\x00" Xdr.dec_uint32));
  Testkit.check_bool "trailing" true
    (Result.is_error (Xdr.run "\x00\x00\x00\x01\xff\xff\xff\xff" Xdr.dec_uint32));
  Testkit.check_bool "bad bool" true (Result.is_error (Xdr.run "\x00\x00\x00\x07" Xdr.dec_bool));
  (* Oversized opaque length is rejected before allocation. *)
  let huge = Xdr.encode (fun e () -> Xdr.enc_uint32 e 0x40000000) () in
  Testkit.check_bool "bounded opaque" true (Result.is_error (Xdr.run huge (fun d -> Xdr.dec_opaque d)))

let test_sunrpc_roundtrip () =
  let call =
    Sunrpc.Call
      {
        Sunrpc.xid = 42;
        prog = 100003;
        vers = 3;
        proc = 6;
        trace = 0;
        span = 0;
        cred = Sunrpc.Auth_unix { stamp = 1; machine = "client"; uid = 1000; gid = 100; gids = [ 100; 7 ] };
        args = "argbytes";
      }
  in
  (match Sunrpc.msg_of_string (Sunrpc.msg_to_string call) with
  | Ok (Sunrpc.Call c) ->
      Testkit.check_int "xid" 42 c.Sunrpc.xid;
      Testkit.check_int "proc" 6 c.Sunrpc.proc;
      Testkit.check_string "args" "argbytes" c.Sunrpc.args;
      (match c.Sunrpc.cred with
      | Sunrpc.Auth_unix u ->
          Testkit.check_int "uid" 1000 u.uid;
          Alcotest.(check (list int)) "gids" [ 100; 7 ] u.gids
      | Sunrpc.Auth_none -> Alcotest.fail "lost credentials")
  | _ -> Alcotest.fail "call roundtrip");
  let reply = Sunrpc.Reply { Sunrpc.reply_xid = 42; body = Sunrpc.Success (Sfs_util.Slice.of_string "resultbytes") } in
  match Sunrpc.msg_of_string (Sunrpc.msg_to_string reply) with
  | Ok (Sunrpc.Reply r) -> (
      Testkit.check_int "reply xid" 42 r.Sunrpc.reply_xid;
      match r.Sunrpc.body with
      | Sunrpc.Success s -> Testkit.check_string "results" "resultbytes" (Sfs_util.Slice.to_string s)
      | _ -> Alcotest.fail "reply body")
  | _ -> Alcotest.fail "reply roundtrip"

let test_sunrpc_errors () =
  List.iter
    (fun body ->
      match Sunrpc.msg_of_string (Sunrpc.msg_to_string (Sunrpc.Reply { Sunrpc.reply_xid = 7; body })) with
      | Ok (Sunrpc.Reply r) -> Testkit.check_bool "body survives" true (r.Sunrpc.body = body)
      | _ -> Alcotest.fail "roundtrip")
    [
      Sunrpc.Prog_unavail;
      Sunrpc.Prog_mismatch (2, 3);
      Sunrpc.Proc_unavail;
      Sunrpc.Garbage_args;
      Sunrpc.System_err;
      Sunrpc.Rejected (Sunrpc.Rpc_mismatch (2, 2));
      Sunrpc.Rejected (Sunrpc.Auth_error 1);
    ]

(* Generators for whole Sun RPC messages, exercising every arm of the
   call/reply envelope. *)
let auth_gen =
  let open QCheck.Gen in
  oneof
    [
      return Sunrpc.Auth_none;
      (let* stamp = int_range 0 0xFFFF in
       let* machine = string_size ~gen:printable (int_range 0 20) in
       let* uid = int_range 0 0xFFFF in
       let* gid = int_range 0 0xFFFF in
       let* gids = list_size (int_range 0 8) (int_range 0 0xFFFF) in
       return (Sunrpc.Auth_unix { stamp; machine; uid; gid; gids }));
    ]

let msg_gen =
  let open QCheck.Gen in
  let call =
    let* xid = int_range 0 0xFFFFFFF in
    let* proc = int_range 0 21 in
    let* cred = auth_gen in
    let* args = string_size ~gen:char (int_range 0 64) in
    return (Sunrpc.Call { Sunrpc.xid; prog = 100003; vers = 3; proc; trace = 0; span = 0; cred; args })
  in
  let reply =
    let* reply_xid = int_range 0 0xFFFFFFF in
    let* body =
      oneof
        [
          map
            (fun s -> Sunrpc.Success (Sfs_util.Slice.of_string s))
            (string_size ~gen:char (int_range 0 64));
          return Sunrpc.Prog_unavail;
          map2 (fun lo hi -> Sunrpc.Prog_mismatch (lo, hi)) (int_range 0 9) (int_range 0 9);
          return Sunrpc.Proc_unavail;
          return Sunrpc.Garbage_args;
          return Sunrpc.System_err;
          map2
            (fun lo hi -> Sunrpc.Rejected (Sunrpc.Rpc_mismatch (lo, hi)))
            (int_range 0 9) (int_range 0 9);
          map (fun s -> Sunrpc.Rejected (Sunrpc.Auth_error s)) (int_range 0 5);
        ]
    in
    return (Sunrpc.Reply { Sunrpc.reply_xid; body })
  in
  oneof [ call; reply ]

(* A Buffer-based reference encoder (the pre-fast-path implementation):
   the in-place Bytes encoder must produce byte-identical output for
   any mix of items, or every figure in the eval would shift. *)
type xdr_item =
  | X_u32 of int
  | X_u64 of int64
  | X_bool of bool
  | X_opaque of string
  | X_string of string
  | X_fixed of string

let ref_encode (items : xdr_item list) : string =
  let b = Buffer.create 64 in
  let u32 v =
    Buffer.add_char b (Char.chr ((v lsr 24) land 0xff));
    Buffer.add_char b (Char.chr ((v lsr 16) land 0xff));
    Buffer.add_char b (Char.chr ((v lsr 8) land 0xff));
    Buffer.add_char b (Char.chr (v land 0xff))
  in
  let pad n = for _ = 1 to (4 - (n land 3)) land 3 do Buffer.add_char b '\000' done in
  List.iter
    (fun item ->
      match item with
      | X_u32 v -> u32 v
      | X_u64 v ->
          u32 (Int64.to_int (Int64.shift_right_logical v 32));
          u32 (Int64.to_int (Int64.logand v 0xFFFFFFFFL))
      | X_bool v -> u32 (if v then 1 else 0)
      | X_opaque s | X_string s ->
          u32 (String.length s);
          Buffer.add_string b s;
          pad (String.length s)
      | X_fixed s ->
          Buffer.add_string b s;
          pad (String.length s))
    items;
  Buffer.contents b

let enc_item (e : Xdr.enc) (item : xdr_item) : unit =
  match item with
  | X_u32 v -> Xdr.enc_uint32 e v
  | X_u64 v -> Xdr.enc_uint64 e v
  | X_bool v -> Xdr.enc_bool e v
  | X_opaque s -> Xdr.enc_opaque e s
  | X_string s -> Xdr.enc_string e s
  | X_fixed s -> Xdr.enc_fixed_opaque e ~size:(String.length s) s

let item_gen =
  let open QCheck.Gen in
  oneof
    [
      map (fun v -> X_u32 v) (int_range 0 0xFFFFFFFF);
      map (fun v -> X_u64 (Int64.of_int v)) int;
      map (fun v -> X_bool v) bool;
      map (fun s -> X_opaque s) (string_size ~gen:char (int_range 0 40));
      map (fun s -> X_string s) (string_size ~gen:char (int_range 0 40));
      map (fun s -> X_fixed s) (string_size ~gen:char (int_range 0 40));
    ]

let props =
  let open QCheck in
  [
    Test.make ~count:500 ~name:"bytes encoder = buffer reference encoder"
      (make Gen.(list_size (int_range 0 30) item_gen))
      (fun items -> Xdr.encode (fun e () -> List.iter (enc_item e) items) () = ref_encode items);
    (* One encoder reused across calls (the Sun RPC connection pattern)
       must behave exactly like a fresh encoder per call. *)
    Test.make ~count:200 ~name:"encoder reuse via reset = fresh encoder"
      (make Gen.(pair (list_size (int_range 0 20) item_gen) (list_size (int_range 0 20) item_gen)))
      (fun (a, b) ->
        let e = Xdr.make_enc () in
        let with_reuse items =
          Xdr.reset e;
          List.iter (enc_item e) items;
          Xdr.to_string e
        in
        with_reuse a = ref_encode a && with_reuse b = ref_encode b);
    (* The in-place nested opaque (replies and requests marshal their
       NFS payload straight into the outer encoder) must produce the
       bytes of enc_opaque over a separately encoded body, after any
       prefix, at every body length mod 4, nested twice. *)
    Test.make ~count:300 ~name:"enc_nested = enc_opaque of encode"
      (make
         Gen.(
           triple
             (list_size (int_range 0 5) item_gen)
             (list_size (int_range 0 10) item_gen)
             (list_size (int_range 0 5) item_gen)))
      (fun (pre, body, inner) ->
        let items e l = List.iter (enc_item e) l in
        let nested =
          Xdr.encode
            (fun e () ->
              items e pre;
              Xdr.enc_nested e (fun e ->
                  items e body;
                  Xdr.enc_nested e (fun e -> items e inner)))
            ()
        in
        let reference =
          Xdr.encode
            (fun e () ->
              items e pre;
              Xdr.enc_opaque e
                (Xdr.encode
                   (fun e () ->
                     items e body;
                     Xdr.enc_opaque e (Xdr.encode items inner))
                   ()))
            ()
        in
        String.equal nested reference);
    Test.make ~count:300 ~name:"opaque roundtrip" (string_gen Gen.char) (fun s ->
        Xdr.run (Xdr.encode Xdr.enc_opaque s) (fun d -> Xdr.dec_opaque d) = Ok s);
    Test.make ~count:300 ~name:"uint64 roundtrip" (map Int64.of_int int) (fun v ->
        Xdr.run (Xdr.encode Xdr.enc_uint64 v) Xdr.dec_uint64 = Ok v);
    Test.make ~count:300 ~name:"uint32 roundtrip" (int_range 0 0xFFFFFFFF) (fun v ->
        Xdr.run (Xdr.encode Xdr.enc_uint32 v) Xdr.dec_uint32 = Ok v);
    Test.make ~count:100 ~name:"bool roundtrip" bool (fun b ->
        Xdr.run (Xdr.encode Xdr.enc_bool b) Xdr.dec_bool = Ok b);
    Test.make ~count:200 ~name:"fixed opaque roundtrip"
      (string_gen_of_size (Gen.return 20) Gen.char)
      (fun s ->
        Xdr.run
          (Xdr.encode (fun e v -> Xdr.enc_fixed_opaque e ~size:20 v) s)
          (fun d -> Xdr.dec_fixed_opaque d ~size:20)
        = Ok s);
    Test.make ~count:200 ~name:"option roundtrip" (option (int_range 0 0xFFFF)) (fun o ->
        Xdr.run
          (Xdr.encode (fun e v -> Xdr.enc_option e Xdr.enc_uint32 v) o)
          (fun d -> Xdr.dec_option d Xdr.dec_uint32)
        = Ok o);
    Test.make ~count:200 ~name:"string array roundtrip"
      (list (string_gen_of_size (Gen.int_range 0 20) Gen.char))
      (fun l ->
        Xdr.run
          (Xdr.encode (fun e v -> Xdr.enc_array e Xdr.enc_string v) l)
          (fun d -> Xdr.dec_array d (fun d -> Xdr.dec_string d))
        = Ok l);
    (* The whole RPC envelope: encode∘decode = id across every arm (a
       decoded reply's results are a view into the message, so they
       compare by content). *)
    Test.make ~count:500 ~name:"sunrpc msg roundtrip" (make msg_gen) (fun m ->
        let by_content = function
          | Sunrpc.Reply ({ Sunrpc.body = Sunrpc.Success s; _ } as r) ->
              Sunrpc.Reply
                { r with Sunrpc.body = Sunrpc.Success (Sfs_util.Slice.of_string (Sfs_util.Slice.to_string s)) }
          | m -> m
        in
        Result.map by_content (Sunrpc.msg_of_string (Sunrpc.msg_to_string m)) = Ok m);
    Test.make ~count:200 ~name:"decoder never crashes on garbage" (string_gen Gen.char) (fun s ->
        match Sunrpc.msg_of_string s with Ok _ | Result.Error _ -> true);
    Test.make ~count:200 ~name:"truncated messages decode to Error, not exceptions"
      (pair (make msg_gen) (int_range 0 200))
      (fun (m, cut) ->
        let wire = Sunrpc.msg_to_string m in
        let cut = min cut (String.length wire) in
        match Sunrpc.msg_of_string (String.sub wire 0 cut) with
        | Ok _ | Result.Error _ -> true);
  ]

let suite =
  ( "xdr",
    [
      Alcotest.test_case "primitives" `Quick test_primitives;
      Alcotest.test_case "padding" `Quick test_padding;
      Alcotest.test_case "malformed input" `Quick test_errors;
      Alcotest.test_case "sunrpc roundtrip" `Quick test_sunrpc_roundtrip;
      Alcotest.test_case "sunrpc error bodies" `Quick test_sunrpc_errors;
    ]
    @ Testkit.to_alcotest props )
