open Sfs_proto
module Rabin = Sfs_crypto.Rabin
module Prng = Sfs_crypto.Prng
module Simclock = Sfs_net.Simclock
module Simnet = Sfs_net.Simnet

let rng = Prng.create [ "proto-test" ]
let server_key = lazy (Rabin.generate ~bits:512 rng)
let temp_key = lazy (Rabin.generate ~bits:512 rng)

(* --- HostID --- *)

let test_hostid () =
  let sk = Lazy.force server_key in
  let hostid = Hostid.of_location_key ~location:"sfs.lcs.mit.edu" ~pubkey:sk.Rabin.pub in
  Testkit.check_int "20 bytes" 20 (String.length hostid);
  Testkit.check_int "base32 width" 32 (String.length (Hostid.to_base32 hostid));
  Alcotest.(check (option string)) "roundtrip" (Some hostid) (Hostid.of_base32 (Hostid.to_base32 hostid));
  Testkit.check_bool "check" true (Hostid.check ~location:"sfs.lcs.mit.edu" ~pubkey:sk.Rabin.pub ~hostid);
  (* Location binding: same key under another name is a different HostID. *)
  Testkit.check_bool "location bound" false
    (Hostid.check ~location:"evil.example.com" ~pubkey:sk.Rabin.pub ~hostid);
  (* Key binding. *)
  let other = Lazy.force temp_key in
  Testkit.check_bool "key bound" false
    (Hostid.check ~location:"sfs.lcs.mit.edu" ~pubkey:other.Rabin.pub ~hostid);
  Testkit.check_bool "bad base32" true (Hostid.of_base32 "shorty" = None)

(* --- Key negotiation --- *)

let run_negotiation ?(tamper_pubkey = false) () =
  let sk = Lazy.force server_key in
  let tk = Lazy.force temp_key in
  let location = "server.example.com" in
  let hostid = Hostid.of_location_key ~location ~pubkey:sk.Rabin.pub in
  let server_keys = ref None in
  (* A miniature sfssd answering the two negotiation steps. *)
  let negotiate msg =
    match Keyneg.server_negotiate ~rng ~server_key:sk msg with
    | Ok (keys, response) ->
        server_keys := Some keys;
        response
    | Result.Error e -> Alcotest.fail e
  in
  let pubkey = if tamper_pubkey then (Lazy.force temp_key).Rabin.pub else sk.Rabin.pub in
  let net = Simnet.create (Simclock.create ()) in
  Simnet.listen net (Simnet.add_host net location) ~port:Keyneg.sfs_port (fun ~peer:_ ->
      Keyneg.respond ~location ~pubkey ~revoked:(fun () -> None) (fun _ -> Ok negotiate));
  let result =
    match
      Keyneg.dial net ~from_host:"client.example.com" ~location ~hostid ~service:Keyneg.Fs
        ~extensions:[]
    with
    | Error Keyneg.Unreachable -> Error "unreachable"
    | Error (Keyneg.Refused e | Keyneg.Revoked e) -> Error e
    | Ok (_, call, server_pub) -> Keyneg.negotiate ~rng ~temp_key:tk ~server_pub call
  in
  (result, !server_keys)

let test_keyneg_agreement () =
  match run_negotiation () with
  | Error e, _ -> Alcotest.fail e
  | Ok _, None -> Alcotest.fail "server never negotiated"
  | Ok keys, Some sk ->
      Testkit.check_string "kcs" (Sfs_util.Hex.encode sk.Keyneg.kcs) (Sfs_util.Hex.encode keys.Keyneg.kcs);
      Testkit.check_string "ksc" (Sfs_util.Hex.encode sk.Keyneg.ksc) (Sfs_util.Hex.encode keys.Keyneg.ksc);
      Testkit.check_string "session id" (Sfs_util.Hex.encode sk.Keyneg.session_id)
        (Sfs_util.Hex.encode keys.Keyneg.session_id);
      Testkit.check_bool "directional keys differ" false (sk.Keyneg.kcs = sk.Keyneg.ksc)

let test_keyneg_wrong_key_rejected () =
  (* A man-in-the-middle substituting its own public key fails the
     HostID check — the defining property of self-certifying names. *)
  match run_negotiation ~tamper_pubkey:true () with
  | Error msg, None -> Testkit.check_string "failure reported" "server key does not match HostID" msg
  | _ -> Alcotest.fail "accepted a wrong public key"

(* --- Secure channel --- *)

let make_channel_pair ?(encrypt = true) () =
  let kcs = String.make 20 'a' and ksc = String.make 20 'b' in
  let client = Channel.create ~encrypt ~send_key:kcs ~recv_key:ksc () in
  let server = Channel.create ~encrypt ~send_key:ksc ~recv_key:kcs () in
  (client, server)

(* Unwrap a successful open; fail the test on a channel error. *)
let open_exn (ch : Channel.t) (wire : string) : string =
  match Channel.open_ ch wire with
  | Ok plain -> plain
  | Error `Mac_mismatch -> Alcotest.fail "unexpected mac mismatch"
  | Error `Replay -> Alcotest.fail "unexpected replay/desync"

let check_rejected name (expected : Channel.open_error) (ch : Channel.t) (wire : string) : unit =
  match Channel.open_ ch wire with
  | Ok _ -> Alcotest.fail (name ^ ": accepted bad traffic")
  | Error e ->
      Testkit.check_bool (name ^ ": error class") true (e = expected)

let test_channel_roundtrip () =
  let client, server = make_channel_pair () in
  List.iter
    (fun msg ->
      let wire = Channel.seal client msg in
      Testkit.check_bool "ciphertext differs" true (wire <> msg || msg = "");
      Testkit.check_string "delivered" msg (open_exn server wire);
      (* And the reverse direction. *)
      let wire2 = Channel.seal server ("reply to " ^ msg) in
      Testkit.check_string "reply" ("reply to " ^ msg) (open_exn client wire2))
    [ "hello"; ""; String.make 10000 'z'; "\x00\x01\x02" ]

let test_channel_tamper () =
  let client, server = make_channel_pair () in
  let wire = Channel.seal client "important message" in
  let tampered = Bytes.of_string wire in
  Bytes.set tampered 5 (Char.chr (Char.code (Bytes.get tampered 5) lxor 0x01));
  (* A flipped ciphertext bit decrypts to a well-framed message whose
     tag no longer verifies. *)
  check_rejected "tampered" `Mac_mismatch server (Bytes.to_string tampered)

let test_channel_replay () =
  let client, server = make_channel_pair () in
  let wire = Channel.seal client "pay $100" in
  Testkit.check_string "first ok" "pay $100" (open_exn server wire);
  (* Replaying the identical ciphertext desynchronizes the stream: the
     decrypted length word is garbage. *)
  check_rejected "replay" `Replay server wire

let test_channel_reorder () =
  let client, server = make_channel_pair () in
  let w1 = Channel.seal client "first" in
  let w2 = Channel.seal client "second" in
  (match Channel.open_ server w2 with
  | Ok _ -> Alcotest.fail "accepted reordered message"
  | Error (`Mac_mismatch | `Replay) -> ());
  (* After a failure the stream is poisoned: even the valid message
     fails (the connection must be torn down, as in SFS). *)
  match Channel.open_ server w1 with
  | Ok _ -> Alcotest.fail "poisoned stream accepted a message"
  | Error (`Mac_mismatch | `Replay) -> ()

let test_channel_no_encryption_still_macs () =
  let client, server = make_channel_pair ~encrypt:false () in
  let wire = Channel.seal client "plaintext mode" in
  let contains hay needle =
    let n = String.length needle in
    let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Testkit.check_bool "actually plaintext" true (contains wire "plaintext mode");
  Testkit.check_string "delivered" "plaintext mode" (open_exn server wire);
  (* Flip a payload byte (offset 4 skips the length word, which would
     fail framing as [`Replay] rather than the MAC). *)
  let wire2 = Channel.seal client "plaintext mode" in
  let tampered = Bytes.of_string wire2 in
  Bytes.set tampered 4 'X';
  check_rejected "still tamper-proof" `Mac_mismatch server (Bytes.to_string tampered);
  (* And a mangled length word is classified as desync. *)
  let wire3 = Channel.seal client "plaintext mode" in
  check_rejected "bad frame is desync" `Replay server ("X" ^ String.sub wire3 1 (String.length wire3 - 1))

let test_channel_charges_crypto_time () =
  let clock = Simclock.create () in
  let kcs = String.make 20 'k' in
  let ch = Channel.create ~clock ~send_key:kcs ~recv_key:kcs () in
  let _, us = Simclock.time clock (fun () -> ignore (Channel.seal ch (String.make 8192 'x'))) in
  (* 10 us fixed + 8192 * 0.128 = ~1059 us, charged at the sender *)
  Testkit.check_bool "crypto time charged" true (us > 900.0 && us < 1200.0);
  let ch2 = Channel.create ~encrypt:false ~clock ~send_key:kcs ~recv_key:kcs () in
  let _, us2 = Simclock.time clock (fun () -> ignore (Channel.seal ch2 (String.make 8192 'x'))) in
  Alcotest.(check (float 0.001)) "no charge without encryption" 0.0 us2

(* --- Auth protocol --- *)

let user_key = lazy (Rabin.generate ~bits:512 rng)

let test_auth_roundtrip () =
  let uk = Lazy.force user_key in
  let info =
    {
      Authproto.service = "FS";
      location = "server.example.com";
      hostid = String.make 20 'h';
      session_id = String.make 20 's';
    }
  in
  let authid = Authproto.authid_of info in
  let msg = Authproto.make_authmsg ~key:uk info ~seqno:7 in
  Testkit.check_bool "validates" true (Authproto.validate_authmsg msg ~authid ~seqno:7);
  Testkit.check_bool "wrong seqno" false (Authproto.validate_authmsg msg ~authid ~seqno:8);
  Testkit.check_bool "wrong authid" false
    (Authproto.validate_authmsg msg ~authid:(String.make 20 'x') ~seqno:7);
  (* Serialization roundtrip. *)
  match Authproto.authmsg_of_string (Authproto.authmsg_to_string msg) with
  | Some msg' -> Testkit.check_bool "serialized validates" true (Authproto.validate_authmsg msg' ~authid ~seqno:7)
  | None -> Alcotest.fail "authmsg roundtrip"

let test_auth_session_binding () =
  (* An AuthID binds the session: the same user signing for another
     session produces a different AuthID, so a stolen request does not
     transplant. *)
  let mk session_id =
    Authproto.authid_of
      { Authproto.service = "FS"; location = "l"; hostid = String.make 20 'h'; session_id }
  in
  Testkit.check_bool "session bound" false (mk (String.make 20 '1') = mk (String.make 20 '2'))

let test_auth_audit_trail () =
  let agent = Sfs_core.Agent.create (Sfs_os.Simos.add_user (Sfs_os.Simos.create ()) "u") in
  Sfs_core.Agent.add_key agent (Lazy.force user_key);
  let info =
    { Authproto.service = "FS"; location = "srv"; hostid = String.make 20 'h'; session_id = String.make 20 's' }
  in
  ignore (Sfs_core.Agent.sign_requests agent info ~seqno_of:(fun i -> i + 1));
  match Sfs_core.Agent.audit_trail agent with
  | [ e ] ->
      Testkit.check_bool "audit records the AuthInfo" true (e.Sfs_core.Agent.info = info);
      Testkit.check_int "and its seqno" 1 e.Sfs_core.Agent.seqno
  | l -> Alcotest.failf "expected one audit entry, got %d" (List.length l)

let test_seq_window () =
  let w = Authproto.make_window () in
  Testkit.check_bool "first" true (Authproto.window_accept w 5);
  Testkit.check_bool "replay" false (Authproto.window_accept w 5);
  Testkit.check_bool "forward" true (Authproto.window_accept w 10);
  (* Out-of-order within the window is accepted once (footnote 4). *)
  Testkit.check_bool "out of order" true (Authproto.window_accept w 7);
  Testkit.check_bool "out of order replay" false (Authproto.window_accept w 7);
  Testkit.check_bool "far future" true (Authproto.window_accept w 1000);
  Testkit.check_bool "far past rejected" false (Authproto.window_accept w 10);
  Testkit.check_bool "negative" false (Authproto.window_accept w (-1))

(* Byte-identity pin: the SHA-1 of a fixed frame sequence in both
   directions, in both channel modes.  Any change to the framing, the
   MAC re-keying or the keystream order fails here by name. *)
let test_channel_frame_pin () =
  let digest encrypt =
    let client, server = make_channel_pair ~encrypt () in
    let h = Sfs_crypto.Sha1.init () in
    List.iteri
      (fun i n ->
        let msg = String.init n (fun j -> Char.chr (((j * 13) + i) land 0xff)) in
        let wire = Channel.seal client msg in
        Sfs_crypto.Sha1.update h wire;
        Testkit.check_string "request" msg (open_exn server wire);
        let reply = Channel.seal server (msg ^ "!") in
        Sfs_crypto.Sha1.update h reply;
        Testkit.check_string "reply" (msg ^ "!") (open_exn client reply))
      [ 0; 1; 31; 32; 100; 255; 256; 1000; 4096; 8192; 8300; 20000; 3; 64 ];
    Sfs_util.Hex.encode (Sfs_crypto.Sha1.final h)
  in
  Testkit.check_string "encrypted frames" "7fab213dfa21263e453d56b44c536488397ff73d" (digest true);
  Testkit.check_string "mac-only frames" "a2619449536b0a08a371848563e9bccecd06d84a" (digest false)

(* Sealing and opening allocate only their outputs: the MAC is re-keyed
   in place and the tag checked where it lies in the frame. *)
let test_channel_alloc () =
  let client, server = make_channel_pair () in
  let msg = String.make 100 'm' in
  (* The first message sizes the frame buffers. *)
  ignore (open_exn server (Channel.seal client msg));
  Testkit.check_alloc_under "seal + open of 100 B" ~bound:1_024 (fun () ->
      ignore (Channel.open_ server (Channel.seal client msg)))

(* The single-buffer seal/open_ fast path must round-trip any traffic
   pattern: message sizes from empty through several buffer-growth
   doublings, in both directions, with and without encryption. *)
let channel_roundtrip_prop =
  QCheck.Test.make ~count:50 ~name:"seal/open_ roundtrip across sizes"
    QCheck.(pair bool (list_of_size (QCheck.Gen.int_range 1 8) (int_range 0 10_000)))
    (fun (encrypt, sizes) ->
      let client, server = make_channel_pair ~encrypt () in
      List.for_all
        (fun n ->
          let msg = String.init n (fun i -> Char.chr ((i * 31 + n) land 0xff)) in
          Channel.open_ server (Channel.seal client msg) = Ok msg
          && Channel.open_ client (Channel.seal server msg) = Ok msg)
        (0 :: sizes))

(* The lending open must be observationally identical to the copying
   one: same plaintext bytes, same stream advance, with and without
   encryption. *)
let channel_open_with_prop =
  QCheck.Test.make ~count:50 ~name:"open_with agrees with open_"
    QCheck.(pair bool (list_of_size (QCheck.Gen.int_range 1 8) (int_range 0 10_000)))
    (fun (encrypt, sizes) ->
      let client_a, server_a = make_channel_pair ~encrypt () in
      let client_b, server_b = make_channel_pair ~encrypt () in
      List.for_all
        (fun n ->
          let msg = String.init n (fun i -> Char.chr ((i * 41 + n) land 0xff)) in
          let wire_a = Channel.seal client_a msg in
          let wire_b = Channel.seal client_b msg in
          let lent view = (Sfs_util.Slice.length view, Sfs_util.Slice.to_string view) in
          match (Channel.open_ server_a wire_a, Channel.open_with server_b wire_b lent) with
          | Ok plain, Ok (len, copy) -> String.equal plain copy && len = String.length msg
          | _ -> false)
        (0 :: sizes))

(* A decoder sees a plaintext byte only once the tag has verified: a
   tampered or truncated frame is refused before [f] runs. *)
let test_open_with_verifies_first () =
  let client, server = make_channel_pair () in
  let wire = Channel.seal client "attack at dawn" in
  let tampered = Bytes.of_string wire in
  Bytes.set tampered 6 (Char.chr (Char.code (Bytes.get tampered 6) lxor 1));
  let called = ref false in
  let lent _ = called := true in
  (match Channel.open_with server (Bytes.to_string tampered) lent with
  | Error `Mac_mismatch -> ()
  | Error `Replay -> Alcotest.fail "tampered frame read as a replay"
  | Ok () -> Alcotest.fail "tampered frame opened");
  Testkit.check_bool "decoder not run on a bad tag" false !called;
  let client, server = make_channel_pair () in
  let wire = Channel.seal client "attack at dawn" in
  (match Channel.open_with server (String.sub wire 0 10) lent with
  | Error `Replay -> ()
  | Error `Mac_mismatch | Ok () -> Alcotest.fail "truncated frame not refused as a replay");
  Testkit.check_bool "decoder not run on a short frame" false !called

let seq_window_prop =
  QCheck.Test.make ~count:200 ~name:"window accepts each seqno at most once"
    QCheck.(list_of_size (QCheck.Gen.int_range 1 100) (int_range 0 200))
    (fun seqnos ->
      let w = Authproto.make_window () in
      let accepted = Hashtbl.create 16 in
      List.for_all
        (fun s ->
          let r = Authproto.window_accept w s in
          if r && Hashtbl.mem accepted s then false (* double accept: bug *)
          else begin
            if r then Hashtbl.replace accepted s ();
            true
          end)
        seqnos)

(* --- Leases --- *)

let test_leases () =
  let clock = Simclock.create () in
  let reg = Lease.create clock in
  let c1 = Lease.register_conn reg in
  let c2 = Lease.register_conn reg in
  Lease.grant reg ~conn:c1 "fh-a";
  Lease.grant reg ~conn:c2 "fh-a";
  (* c1 mutates: only c2 gets the callback. *)
  Lease.invalidate reg ~by:c1 "fh-a";
  Alcotest.(check (list string)) "c2 invalidated" [ "fh-a" ] (Lease.take reg c2);
  Alcotest.(check (list string)) "c1 not notified of own write" [] (Lease.take reg c1);
  Alcotest.(check (list string)) "queue drained" [] (Lease.take reg c2)

let test_lease_expiry () =
  let clock = Simclock.create () in
  let reg = Lease.create clock in
  let c1 = Lease.register_conn reg in
  let c2 = Lease.register_conn reg in
  Lease.grant reg ~conn:c2 "fh-b";
  (* After the lease expires no callback is needed. *)
  Simclock.advance clock (float_of_int (Lease.lease_s + 1) *. 1_000_000.0);
  Lease.invalidate reg ~by:c1 "fh-b";
  Alcotest.(check (list string)) "expired lease not notified" [] (Lease.take reg c2)

let test_lease_dedup () =
  let clock = Simclock.create () in
  let reg = Lease.create clock in
  let c1 = Lease.register_conn reg in
  let c2 = Lease.register_conn reg in
  Lease.grant reg ~conn:c2 "fh-c";
  Lease.invalidate reg ~by:c1 "fh-c";
  Lease.grant reg ~conn:c2 "fh-c";
  Lease.invalidate reg ~by:c1 "fh-c";
  Alcotest.(check (list string)) "deduplicated" [ "fh-c" ] (Lease.take reg c2)

(* Files whose leases all lapsed long ago are swept from the holder
   table once it grows; live leases survive the sweep and are still
   called back. *)
let test_lease_sweep () =
  let clock = Simclock.create () in
  let reg = Lease.create clock in
  let c1 = Lease.register_conn reg in
  let c2 = Lease.register_conn reg in
  for i = 0 to 1023 do
    Lease.grant reg ~conn:c2 (Printf.sprintf "old-%d" i)
  done;
  Simclock.advance clock 121_000_000.0;
  Lease.grant reg ~conn:c2 "live";
  Testkit.check_int "lapsed holders swept" 0 (Lease.holder_count reg "old-0");
  Testkit.check_int "live holder kept" 1 (Lease.holder_count reg "live");
  Lease.invalidate reg ~by:c1 "live";
  Alcotest.(check (list string)) "live lease still called back" [ "live" ] (Lease.take reg c2)

(* --- SFS RW wire messages --- *)

let test_sfsrw_roundtrip () =
  let reqs =
    [
      Sfsrw.Fs_call { xid = 7; authno = 3; proc = 6; trace = 9; span = 4; args = "argdata" };
      Sfsrw.Auth_req { seqno = 12; authmsg = "msgdata" };
    ]
  in
  List.iter
    (fun r ->
      match Sfsrw.request_of_slice (Sfs_util.Slice.of_string (Sfsrw.request_to_string r)) with
      | Ok r' -> Testkit.check_bool "request roundtrip" true (r = r')
      | Result.Error e -> Alcotest.fail e)
    reqs;
  let resps =
    [
      Sfsrw.Fs_reply { results = Sfs_util.Slice.of_string "res"; invalidations = [ "fh1"; "fh2" ] };
      Sfsrw.Auth_granted { authno = 4; seqno = 12 };
      Sfsrw.Auth_denied { seqno = 13; reason = "no such user" };
      Sfsrw.Proto_error "broken";
    ]
  in
  List.iter
    (fun r ->
      (* Fs_reply results decode as a view into the wire string, so the
         round trip compares encodings rather than views. *)
      let wire = Sfsrw.response_to_string r in
      match Sfsrw.response_of_slice (Sfs_util.Slice.of_string wire) with
      | Ok r' -> Testkit.check_string "response roundtrip" wire (Sfsrw.response_to_string r')
      | Result.Error e -> Alcotest.fail e)
    resps

(* --- Read-only dialect --- *)

let test_readonly_objects () =
  let file = Readonly_proto.O_file "contents of README" in
  let h = Readonly_proto.hash_obj file in
  Testkit.check_int "sha1 size" 20 (String.length h);
  let dir =
    Readonly_proto.O_dir
      (Readonly_proto.dir_of_entries
         [ { Readonly_proto.e_name = "README"; e_kind = Readonly_proto.K_file; e_hash = h } ])
  in
  (match Readonly_proto.obj_of_slice (Sfs_util.Slice.of_string (Readonly_proto.obj_to_string dir)) with
  | Ok (Readonly_proto.O_dir d) -> (
      match Readonly_proto.dir_entries d with
      | [ e ] ->
          Testkit.check_string "entry name" "README" e.Readonly_proto.e_name;
          Testkit.check_string "entry hash" (Sfs_util.Hex.encode h)
            (Sfs_util.Hex.encode e.Readonly_proto.e_hash)
      | _ -> Alcotest.fail "dir roundtrip")
  | _ -> Alcotest.fail "dir roundtrip");
  (* Content addressing: different content, different hash. *)
  Testkit.check_bool "hash binds content" false
    (Readonly_proto.hash_obj (Readonly_proto.O_file "x") = Readonly_proto.hash_obj (Readonly_proto.O_file "y"))

(* --- Read-only directories: validated once, scanned where they lie --- *)

let ro_kinds = [| Readonly_proto.K_file; Readonly_proto.K_dir; Readonly_proto.K_symlink |]

(* Names from a three-name alphabet collide, so the first of several
   equal names is exercised; the rest have random bytes and lengths up
   to 255, most of them odd (padded). *)
let gen_ro_name : string QCheck.Gen.t =
  QCheck.Gen.(
    frequency
      [
        (1, oneofl [ "a"; "b"; "ab" ]);
        ( 3,
          string_size ~gen:char
            (oneof [ int_range 0 8; map (fun n -> (2 * n) + 1) (int_range 0 127); return 255 ]) );
      ])

let gen_ro_entries : Readonly_proto.entry list QCheck.Gen.t =
  QCheck.Gen.(
    list_size (int_range 0 24)
      (map3
         (fun e_name k e_hash -> { Readonly_proto.e_name; e_kind = ro_kinds.(k); e_hash })
         gen_ro_name (int_range 0 2)
         (string_size ~gen:char (return 20))))

let arb_ro_dir =
  QCheck.make
    ~print:(fun (es, probe) ->
      Printf.sprintf "%d entries %s; probe %S" (List.length es)
        (String.concat ","
           (List.map (fun e -> Printf.sprintf "%S" e.Readonly_proto.e_name) es))
        probe)
    QCheck.Gen.(pair gen_ro_entries gen_ro_name)

(* The marshaled directory object of [entries], decoded as a view into a
   longer string: bytes before and after the object are never read. *)
let ro_dir_view (entries : Readonly_proto.entry list) : string * Readonly_proto.dir option =
  let obj = Readonly_proto.obj_to_string (Readonly_proto.O_dir (Readonly_proto.dir_of_entries entries)) in
  let framed = "head" ^ obj ^ "tail" in
  match Readonly_proto.obj_of_slice (Sfs_util.Slice.make framed ~off:4 ~len:(String.length obj)) with
  | Ok (Readonly_proto.O_dir d) -> (obj, Some d)
  | Ok _ | Error _ -> (obj, None)

let ro_dir_find_prop =
  QCheck.Test.make ~count:300 ~name:"readonly dir_find agrees with List.find_opt" arb_ro_dir
    (fun (entries, probe) ->
      match ro_dir_view entries with
      | _, None -> false
      | _, Some d ->
          let expect name =
            Option.map
              (fun e -> e.Readonly_proto.e_hash)
              (List.find_opt (fun e -> String.equal e.Readonly_proto.e_name name) entries)
          in
          Readonly_proto.dir_length d = List.length entries
          && Readonly_proto.dir_entries d = entries
          && List.for_all
               (fun name -> Readonly_proto.dir_find d name = expect name)
               (probe :: List.map (fun e -> e.Readonly_proto.e_name) entries))

(* [s] with the 32-bit word at [off] replaced by [v]. *)
let with_be32 (s : string) ~(off : int) (v : int) : string =
  let b = Bytes.of_string s in
  Sfs_util.Bytesutil.put_be32 b ~off v;
  Bytes.to_string b

let ro_dir_refusal_prop =
  QCheck.Test.make ~count:300 ~name:"readonly truncated or length-flipped directory refused"
    QCheck.(pair arb_ro_dir (pair small_nat small_nat))
    (fun ((entries, _), (cut, pick)) ->
      let obj, _ = ro_dir_view entries in
      let refused bytes =
        match Readonly_proto.obj_of_slice (Sfs_util.Slice.of_string bytes) with
        | Error _ -> true
        | Ok _ -> false
        | exception _ -> false
      in
      let count = List.length entries in
      (* The offset of each entry's name-length word. *)
      let _, name_offs =
        List.fold_left
          (fun (off, acc) e ->
            let n = String.length e.Readonly_proto.e_name in
            (off + 4 + n + ((4 - (n land 3)) land 3) + 24, off :: acc))
          (8, []) entries
      in
      refused (String.sub obj 0 (cut mod String.length obj))
      && refused (with_be32 obj ~off:4 (count + 1))
      && (count = 0 || refused (with_be32 obj ~off:4 (count - 1)))
      &&
      match name_offs with
      | [] -> true
      | offs ->
          let off = List.nth offs (pick mod List.length offs) in
          let n = Sfs_util.Bytesutil.int_of_be32 obj ~off in
          refused (with_be32 obj ~off (n + 256)))

let test_readonly_fsinfo_signature () =
  let sk = Lazy.force server_key in
  let info = { Readonly_proto.root_hash = String.make 20 'r'; issued_s = 100; duration_s = 3600; serial = 5 } in
  let signature = Readonly_proto.sign_fsinfo sk info in
  Testkit.check_bool "verifies" true (Readonly_proto.verify_fsinfo sk.Rabin.pub info ~signature);
  (* A rolled-back serial or altered root must fail. *)
  Testkit.check_bool "root bound" false
    (Readonly_proto.verify_fsinfo sk.Rabin.pub
       { info with Readonly_proto.root_hash = String.make 20 'x' }
       ~signature);
  Testkit.check_bool "serial bound" false
    (Readonly_proto.verify_fsinfo sk.Rabin.pub { info with Readonly_proto.serial = 4 } ~signature);
  let other = Lazy.force temp_key in
  Testkit.check_bool "key bound" false (Readonly_proto.verify_fsinfo other.Rabin.pub info ~signature)

let suite =
  ( "proto",
    [
      Alcotest.test_case "hostid" `Quick test_hostid;
      Alcotest.test_case "keyneg agreement" `Quick test_keyneg_agreement;
      Alcotest.test_case "keyneg MITM rejected" `Quick test_keyneg_wrong_key_rejected;
      Alcotest.test_case "channel roundtrip" `Quick test_channel_roundtrip;
      Alcotest.test_case "channel tamper" `Quick test_channel_tamper;
      Alcotest.test_case "open_with verifies before lending" `Quick test_open_with_verifies_first;
      Alcotest.test_case "channel replay" `Quick test_channel_replay;
      Alcotest.test_case "channel reorder" `Quick test_channel_reorder;
      Alcotest.test_case "channel no-encryption ablation" `Quick test_channel_no_encryption_still_macs;
      Alcotest.test_case "channel crypto cost" `Quick test_channel_charges_crypto_time;
      Alcotest.test_case "channel frame byte pin" `Quick test_channel_frame_pin;
      Alcotest.test_case "channel allocation" `Quick test_channel_alloc;
      Alcotest.test_case "auth roundtrip" `Quick test_auth_roundtrip;
      Alcotest.test_case "auth session binding" `Quick test_auth_session_binding;
      Alcotest.test_case "auth audit trail" `Quick test_auth_audit_trail;
      Alcotest.test_case "sequence window" `Quick test_seq_window;
      Alcotest.test_case "leases basic" `Quick test_leases;
      Alcotest.test_case "lease expiry" `Quick test_lease_expiry;
      Alcotest.test_case "lease dedup" `Quick test_lease_dedup;
      Alcotest.test_case "lease sweep" `Quick test_lease_sweep;
      Alcotest.test_case "sfsrw wire roundtrip" `Quick test_sfsrw_roundtrip;
      Alcotest.test_case "readonly objects" `Quick test_readonly_objects;
      Alcotest.test_case "readonly fsinfo signature" `Quick test_readonly_fsinfo_signature;
    ]
    @ Testkit.to_alcotest
        [
          channel_roundtrip_prop;
          channel_open_with_prop;
          seq_window_prop;
          ro_dir_find_prop;
          ro_dir_refusal_prop;
        ] )
