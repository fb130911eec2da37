(* The read-only CDN tier: verification cache, incremental snapshots,
   publisher -> mirror fan-out, root refresh, and the tamper property
   (a flipped bit anywhere in a served frame must never surface through
   the file system interface). *)

module Simclock = Sfs_net.Simclock
module Simnet = Sfs_net.Simnet
module Simos = Sfs_os.Simos
module Memfs = Sfs_nfs.Memfs
module Nfs_types = Sfs_nfs.Nfs_types
module Prng = Sfs_crypto.Prng
module Rabin = Sfs_crypto.Rabin
module Ro = Sfs_proto.Readonly_proto
module Readonly = Sfs_core.Readonly
module Replica = Sfs_core.Replica
module Vcache = Sfs_core.Vcache
module Obs = Sfs_obs.Obs

let root_cred = Simos.cred_of_user Simos.root_user

(* --- Vcache: bounded LRU over verified objects --- *)

let test_vcache_lru () =
  let clock = Simclock.create () in
  let obs = Obs.create ~now_us:(fun () -> Simclock.now_us clock) () in
  let vc = Vcache.create ~obs ~cap:2 () in
  let o n = Ro.O_file (String.make 8 n) in
  Vcache.add vc ~hash:"a" ~bytes:8 (o 'a');
  Vcache.add vc ~hash:"b" ~bytes:8 (o 'b');
  Testkit.check_bool "a hits" true (Vcache.find vc "a" <> None);
  (* 'b' is now least recently used; adding 'c' must evict it. *)
  Vcache.add vc ~hash:"c" ~bytes:8 (o 'c');
  Testkit.check_int "count stays at cap" 2 (Vcache.count vc);
  Testkit.check_bool "b evicted" true (Vcache.find vc "b" = None);
  Testkit.check_bool "a survived" true (Vcache.find vc "a" <> None);
  Testkit.check_bool "c present" true (Vcache.find vc "c" <> None);
  Testkit.check_int "bytes tracked" 16 (Vcache.bytes vc);
  Testkit.check_int "hits counted" 3 (Obs.counter obs "ro.verify.hit");
  Testkit.check_int "misses counted" 1 (Obs.counter obs "ro.verify.miss");
  Testkit.check_int "evictions counted" 1 (Obs.counter obs "ro.vcache.evict")

(* --- Incremental snapshots --- *)

let mk_tree () =
  let clock = Simclock.create () in
  let now () = Nfs_types.time_of_us (Simclock.now_us clock) in
  let fs = Memfs.create ~fsid:1 ~now () in
  let dir name =
    match Memfs.mkdir fs root_cred ~dir:Memfs.root_id name ~mode:0o777 with
    | Ok (ino, _) -> ino
    | Error _ -> assert false
  in
  let file ~dir name data =
    match Memfs.create_file fs root_cred ~dir name ~mode:0o666 with
    | Ok (ino, _) -> (
        match Memfs.write fs root_cred ino ~off:0 data with
        | Ok _ -> ino
        | Error _ -> assert false)
    | Error _ -> assert false
  in
  let d0 = dir "d0" and d1 = dir "d1" in
  let f00 = file ~dir:d0 "f0" (String.make 4096 'x') in
  ignore (file ~dir:d0 "f1" (String.make 512 'y'));
  ignore (file ~dir:d1 "f0" (String.make 1024 'z'));
  (fs, d1, f00)

let stores_equal a b =
  Readonly.object_count a = Readonly.object_count b
  && Readonly.fold_store a (fun h _ acc -> acc && Readonly.mem b h) true

let test_incremental_snapshot () =
  let key = Rabin.generate ~bits:512 (Prng.create [ "replica-test"; "key" ]) in
  let fs, d1, f00 = mk_tree () in
  let s1 = Readonly.snapshot ~serial:1 ~key ~now_s:0 fs in
  let reused1, hashed1 = Readonly.reuse_stats s1 in
  Testkit.check_int "first build reuses nothing" 0 reused1;
  Testkit.check_bool "first build hashes everything" true (hashed1 >= 6);
  (* No mutation: the incremental rebuild re-hashes only the directory
     spine, and lands on the identical signed root. *)
  let s2 = Readonly.snapshot ~serial:2 ~prev:s1 ~key ~now_s:0 fs in
  Testkit.check_bool "same tree, same root"
    true
    ((Readonly.fsinfo s2).Ro.root_hash = (Readonly.fsinfo s1).Ro.root_hash);
  let reused2, hashed2 = Readonly.reuse_stats s2 in
  Testkit.check_int "all three leaves reused" 3 reused2;
  Testkit.check_bool "only directories re-hashed" true (hashed2 = 3);
  Testkit.check_bool "fresh bytes shrink" true
    (Readonly.fresh_bytes s2 < Readonly.fresh_bytes s1 / 4);
  (* Mutate one file: the incremental build must agree object-for-object
     with a from-scratch build of the same tree (the oracle). *)
  (match Memfs.write fs root_cred f00 ~off:0 (String.make 4096 'X') with
  | Ok _ -> ()
  | Error _ -> assert false);
  ignore
    (match Memfs.create_file fs root_cred ~dir:d1 "f9" ~mode:0o666 with
    | Ok (ino, _) -> Memfs.write fs root_cred ino ~off:0 "fresh"
    | Error _ -> assert false);
  let s3 = Readonly.snapshot ~serial:3 ~prev:s2 ~key ~now_s:0 fs in
  let oracle = Readonly.snapshot ~serial:3 ~key ~now_s:0 fs in
  Testkit.check_string "roots agree with the oracle"
    (Sfs_util.Hex.encode (Readonly.fsinfo oracle).Ro.root_hash)
    (Sfs_util.Hex.encode (Readonly.fsinfo s3).Ro.root_hash);
  Testkit.check_bool "stores agree with the oracle" true (stores_equal s3 oracle);
  let reused3, _ = Readonly.reuse_stats s3 in
  Testkit.check_int "clean leaves reused" 2 reused3;
  Testkit.check_bool "fresh bytes track the change" true
    (Readonly.fresh_bytes s3 < Readonly.fresh_bytes oracle)

(* --- Publisher -> mirror fan-out over Simnet --- *)

let mk_world () =
  let clock = Simclock.create () in
  let obs = Obs.create ~now_us:(fun () -> Simclock.now_us clock) () in
  let net = Simnet.create ~obs clock in
  (clock, obs, net)

let test_fanout_delta_and_evict () =
  let clock, obs, net = mk_world () in
  let fs, _, f00 = mk_tree () in
  ignore (Simnet.add_host net "pub.test");
  let key = Rabin.generate ~bits:512 (Prng.create [ "replica-test"; "fanout" ]) in
  let p = Replica.publisher ~obs ~net ~host:"pub.test" ~key ~clock fs in
  let mirrors =
    Array.init 2 (fun m ->
        let name = Printf.sprintf "m%d.test" m in
        let mi = Replica.mirror ~obs ~clock () in
        Replica.attach net mi (Simnet.add_host net name);
        mi)
  in
  let targets = [ Replica.target ~addr:"m0.test"; Replica.target ~addr:"m1.test" ] in
  let s1 = Replica.publish p in
  Testkit.check_int "fan-out clean" 0 (Replica.fan_out p targets);
  Array.iter
    (fun mi ->
      Testkit.check_int "mirror holds the full store" (Readonly.object_count s1)
        (Replica.mirror_objects mi);
      match Replica.mirror_root mi with
      | Some i -> Testkit.check_int "mirror on serial 1" 1 i.Ro.serial
      | None -> Alcotest.fail "mirror has no root")
    mirrors;
  let pushed_full = Obs.counter obs "ro.fanout.objs" in
  Testkit.check_int "both mirrors got every object" (2 * Readonly.object_count s1) pushed_full;
  (* Find the hash of the file we are about to change, then change it:
     the next fan-out must push only the delta and evict the stale
     objects. *)
  (match Memfs.write fs root_cred f00 ~off:0 (String.make 4096 'Q') with
  | Ok _ -> ()
  | Error _ -> assert false);
  let s2 = Replica.publish p in
  Testkit.check_int "incremental fan-out clean" 0 (Replica.fan_out p targets);
  let pushed_delta = Obs.counter obs "ro.fanout.objs" - pushed_full in
  (* changed file + its directory + the root: 3 objects per mirror *)
  Testkit.check_int "only the delta travelled" 6 pushed_delta;
  Testkit.check_bool "stale objects evicted" true (Obs.counter obs "ro.fanout.evicted" >= 2);
  ignore (Simnet.add_host net "check.test");
  Array.iteri
    (fun m mi ->
      Testkit.check_int "mirror store converged" (Readonly.object_count s2)
        (Replica.mirror_objects mi);
      let conn =
        Simnet.connect net ~from_host:"check.test" ~addr:(Printf.sprintf "m%d.test" m)
          ~port:Replica.ro_port ~proto:Sfs_net.Costmodel.Tcp
      in
      Readonly.fold_store s2
        (fun h _ () ->
          Testkit.check_bool "mirror has every live hash" true
            (match Ro.ro_response_of_string (Simnet.inject conn (Ro.ro_request_to_string (Ro.Get_obj h))) with
            | Ok (Ro.Obj_is _) -> true
            | _ -> false))
        ();
      match Replica.mirror_root mi with
      | Some i -> Testkit.check_int "mirror on serial 2" 2 i.Ro.serial
      | None -> Alcotest.fail "mirror lost its root")
    mirrors;
  (* A snapshot's own server refuses fan-out procedures. *)
  let direct = Readonly.handle_request s2 (Ro.ro_request_to_string (Ro.Put_objs [])) in
  match Ro.ro_response_of_string direct with
  | Ok (Ro.Ro_error _) -> ()
  | _ -> Alcotest.fail "publisher-side server accepted a Put"

(* --- Client refresh: signature skip and rollback refusal --- *)

let test_refresh_skip_and_rollback () =
  let clock = Simclock.create () in
  let obs = Obs.create ~now_us:(fun () -> Simclock.now_us clock) () in
  let key = Rabin.generate ~bits:512 (Prng.create [ "replica-test"; "refresh" ]) in
  let fs, _, f00 = mk_tree () in
  let s1 = Readonly.snapshot ~serial:1 ~key ~now_s:0 fs in
  let served = ref s1 in
  let exchange bytes = Readonly.handle_request !served bytes in
  let c = Readonly.connect ~obs ~exchange ~pubkey:key.Rabin.pub ~clock () in
  Testkit.check_bool "connected on serial 1" true ((Readonly.current_fsinfo c).Ro.serial = 1);
  (* Same root, byte-identical reply: the Rabin verification is skipped
     but the refresh still happens. *)
  Readonly.refresh c;
  Readonly.refresh c;
  Testkit.check_int "one real verification (connect)" 1 (Obs.counter obs "ro.root.verify");
  Testkit.check_int "identical roots skipped" 2 (Obs.counter obs "ro.root.skip");
  (* New snapshot: different bytes, full verification. *)
  (match Memfs.write fs root_cred f00 ~off:0 "changed" with
  | Ok _ -> ()
  | Error _ -> assert false);
  let s2 = Readonly.snapshot ~serial:2 ~prev:s1 ~key ~now_s:0 fs in
  served := s2;
  Readonly.refresh c;
  Testkit.check_int "new root verified for real" 2 (Obs.counter obs "ro.root.verify");
  Testkit.check_bool "client moved to serial 2" true ((Readonly.current_fsinfo c).Ro.serial = 2);
  (* Rollback: serving the old (validly signed!) snapshot again must be
     refused across refresh — the serial floor survives. *)
  served := s1;
  (match Readonly.refresh c with
  | () -> Alcotest.fail "rollback accepted"
  | exception Readonly.Verification_failed _ -> ());
  Testkit.check_bool "client still on serial 2" true ((Readonly.current_fsinfo c).Ro.serial = 2)

(* --- Tamper property: one flipped bit never surfaces through ops --- *)

let flip_bit (s : string) (bit : int) : string =
  let b = Bytes.of_string s in
  let i = bit / 8 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (bit mod 8))));
  Bytes.to_string b

(* Shared fixture: key generation is too slow per-property-case. *)
let tamper_fixture =
  lazy
    (let key = Rabin.generate ~bits:512 (Prng.create [ "replica-test"; "tamper" ]) in
     let fs, _, _ = mk_tree () in
     let snap = Readonly.snapshot ~serial:1 ~key ~now_s:0 fs in
     (key, snap))

let prop_flipped_object_bit =
  QCheck.Test.make ~count:200 ~name:"flipped object bit raises Verification_failed"
    QCheck.(pair small_nat (int_range 0 1_000_000))
    (fun (pick, bit) ->
      let key, snap = Lazy.force tamper_fixture in
      let clock = Simclock.create () in
      (* Collect the store deterministically and pick a victim object. *)
      let objs =
        List.sort compare (Readonly.fold_store snap (fun h bytes acc -> (h, bytes) :: acc) [])
      in
      let h, bytes = List.nth objs (pick mod List.length objs) in
      let bit = bit mod (String.length bytes * 8) in
      let tampered = flip_bit bytes bit in
      let exchange req =
        match Ro.ro_request_of_string req with
        | Ok Ro.Get_fsinfo -> Readonly.handle_request snap req
        | Ok (Ro.Get_obj h') when h' = h -> Ro.ro_response_to_string (Ro.Obj_is tampered)
        | Ok _ -> Readonly.handle_request snap req
        | Result.Error e -> failwith e
      in
      let c = Readonly.connect ~exchange ~pubkey:key.Rabin.pub ~clock () in
      (* Direct fetch must refuse the bytes... *)
      let fetch_refused =
        match Readonly.fetch c h with
        | _ -> false
        | exception Readonly.Verification_failed _ -> true
      in
      (* ...and through the file system interface the tampered object
         is an I/O error, never data. *)
      let ops = Readonly.ops c in
      let ops_refused =
        match ops.Sfs_nfs.Fs_intf.fs_getattr Simos.anonymous_cred h with
        | Ok _ -> false
        | Error Nfs_types.NFS3ERR_IO -> true
        | Error _ -> false
      in
      fetch_refused && ops_refused)

let prop_flipped_root_bit =
  QCheck.Test.make ~count:200 ~name:"flipped root-frame bit never yields a wrong root"
    QCheck.(int_range 0 100_000)
    (fun bit ->
      let key, snap = Lazy.force tamper_fixture in
      let clock = Simclock.create () in
      let genuine = Readonly.handle_request snap (Ro.ro_request_to_string Ro.Get_fsinfo) in
      let bit = bit mod (String.length genuine * 8) in
      let tampered = flip_bit genuine bit in
      let exchange req =
        match Ro.ro_request_of_string req with
        | Ok Ro.Get_fsinfo -> tampered
        | _ -> Readonly.handle_request snap req
      in
      match Readonly.connect ~exchange ~pubkey:key.Rabin.pub ~clock () with
      | c ->
          (* The only survivable flips are in XDR padding bytes the
             decoder ignores: the decoded root must then be exactly the
             genuine one — a harmless flip, not a forgery. *)
          Readonly.current_fsinfo c = Readonly.fsinfo snap
      | exception Readonly.Verification_failed _ -> true)

(* --- Byte pins: every message of the read-only dialect ---

   SHA-1s recorded before mirrors kept stored reply frames and before
   [handle_request] built its frames at their exact size: serving from
   a lookup must not move a wire byte. *)

let messages_sha1 (msgs : string list) : string =
  Sfs_util.Hex.encode
    (Sfs_crypto.Sha1.digest_list
       (List.concat_map (fun r -> [ Sfs_util.Bytesutil.be32_of_int (String.length r); r ]) msgs))

let test_reply_byte_pin () =
  let module Flashcrowd = Sfs_workload.Flashcrowd in
  let tap = Simnet.passive_tap () in
  let cfg =
    {
      Flashcrowd.default with
      Flashcrowd.clients = 24;
      dirs = 2;
      files_per_dir = 8;
      file_bytes = 8190;
      reads_per_client = 6;
      republish_at_us = Some 25_000.0;
    }
  in
  let r = Flashcrowd.run ~tap cfg in
  Testkit.check_int "all clients finished" 24 r.Flashcrowd.r_clients_ok;
  Testkit.check_int "republished mid-crowd" 1 r.Flashcrowd.r_republishes;
  let messages dir =
    List.rev (List.filter_map (fun (d, m) -> if d = dir then Some m else None) tap.Simnet.observed)
  in
  let mirror_replies = messages Simnet.To_client in
  Testkit.check_int "mirror replies" 249 (List.length mirror_replies);
  Testkit.check_string "mirror reply SHA-1" "99e3f6c71af3d728bbce7b2f33878ca963fe4e9f"
    (messages_sha1 mirror_replies);
  (* The requests too: the publisher's pushes carry objects as views. *)
  Testkit.check_string "request SHA-1" "b9720f9fe1e484d106529f765893df700f6b82b5"
    (messages_sha1 (messages Simnet.To_server));
  let snap = Option.get (Replica.current r.Flashcrowd.r_publisher) in
  let hashes = List.sort compare (Readonly.fold_store snap (fun h _ acc -> h :: acc) []) in
  let requests =
    [ Ro.Get_fsinfo; Ro.Put_objs []; Ro.Get_obj (String.make 20 '\000') ]
    @ List.map (fun h -> Ro.Get_obj h) hashes
  in
  let served =
    Readonly.handle_request snap "\255"
    :: List.map (fun q -> Readonly.handle_request snap (Ro.ro_request_to_string q)) requests
  in
  Testkit.check_string "handle_request reply SHA-1" "c13c5bfab2221f2196c5d5fa7861253539ef8366"
    (messages_sha1 served)

(* --- Serving from a lookup: exact-size frames, views, allocation --- *)

module Slice = Sfs_util.Slice

(* The exact-size frame is the generic codec's Obj_is reply, for every
   padding case (each case checks four consecutive lengths), also when
   the object is a view inside a larger string; and the view decoder
   finds the object again. *)
let prop_obj_frame_bytes =
  QCheck.Test.make ~count:200 ~name:"obj_frame = ro_response_to_string (Obj_is s), all paddings"
    QCheck.(pair (int_range 0 8997) (int_range 0 255))
    (fun (n0, seed) ->
      List.for_all
        (fun n ->
          let s = String.init n (fun i -> Char.chr (((i * 31) + seed) land 255)) in
          let framed = Ro.ro_response_to_string (Ro.Obj_is s) in
          let padded = "pre" ^ s ^ "post" in
          Ro.obj_frame (Slice.of_string s) = framed
          && Ro.obj_frame (Slice.make padded ~off:3 ~len:n) = framed
          &&
          match Ro.obj_frame_view framed with
          | Ok v -> Slice.to_string v = s
          | Error _ -> false)
        [ n0; n0 + 1; n0 + 2; n0 + 3 ])

let test_obj_frame_view_errors () =
  let view r = Ro.obj_frame_view (Ro.ro_response_to_string r) in
  (match view (Ro.Ro_error "no such object") with
  | Error e -> Testkit.check_string "error reply" "no such object" e
  | Ok _ -> Alcotest.fail "error reply viewed as an object");
  (match view (Ro.Put_ok 3) with
  | Error e -> Testkit.check_string "other reply" "unexpected response" e
  | Ok _ -> Alcotest.fail "Put_ok viewed as an object");
  let frame = Ro.obj_frame (Slice.of_string "abcde") in
  List.iter
    (fun bad ->
      match Ro.obj_frame_view bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "malformed frame of %d bytes accepted" (String.length bad))
    [ ""; "\000\000"; String.sub frame 0 11; frame ^ "\000\000\000\000" ]

(* A distinct 8 KB file per index: its object's hash is unique. *)
let file_8k (i : int) : string = Printf.sprintf "%08d" i ^ String.make 8184 'v'

let write_8k (fs : Memfs.t) ~(dir : int) (name : string) (i : int) : unit =
  match Memfs.create_file fs root_cred ~dir name ~mode:0o644 with
  | Ok (ino, _) -> ignore (Memfs.write fs root_cred ino ~off:0 (file_8k i))
  | Error _ -> assert false

let alloc_key = lazy (Rabin.generate ~bits:512 (Prng.create [ "replica-test"; "alloc" ]))

(* Serving: a mirror's Get_obj is a lookup and a send. *)
let test_mirror_serve_alloc () =
  let clock = Simclock.create () in
  let obs = Obs.create ~now_us:(fun () -> Simclock.now_us clock) () in
  let m = Replica.mirror ~obs ~clock () in
  (* The mirror's wire handler, called with no transport around it. *)
  let net = Simnet.create clock in
  Replica.attach net m (Simnet.add_host net "m.alloc");
  let handle =
    Simnet.inject
      (Simnet.connect net ~from_host:"c" ~addr:"m.alloc" ~port:Replica.ro_port ~proto:Sfs_net.Costmodel.Tcp)
  in
  let obj = Ro.obj_to_string (Ro.O_file (file_8k 0)) in
  let h = Sfs_crypto.Sha1.digest obj in
  ignore (handle (Ro.ro_request_to_string (Ro.Put_objs [ (h, Slice.of_string obj) ])));
  let req = Ro.ro_request_to_string (Ro.Get_obj h) in
  let first = handle req in
  Testkit.check_bool "reply is the Obj_is frame" true
    (first = Ro.ro_response_to_string (Ro.Obj_is obj));
  Testkit.check_alloc_under "mirror Get_obj of 8 KB" ~bound:512 (fun () ->
      ignore (Sys.opaque_identity (handle req)));
  Testkit.check_bool "every client gets the stored frame" true (handle req == first);
  Testkit.check_bool "served bytes count the object" true
    (Replica.mirror_served m = (3, 3 * String.length obj))

(* Verifying: a vcache miss copies the file's bytes once. *)
let test_fetch_miss_alloc () =
  let key = Lazy.force alloc_key in
  let clock = Simclock.create () in
  let now () = Nfs_types.time_of_us (Simclock.now_us clock) in
  let fs = Memfs.create ~fsid:1 ~now () in
  write_8k fs ~dir:Memfs.root_id "f0" 0;
  write_8k fs ~dir:Memfs.root_id "f1" 1;
  let snap = Readonly.snapshot ~key ~now_s:0 fs in
  let h0 = Ro.hash_obj (Ro.O_file (file_8k 0)) and h1 = Ro.hash_obj (Ro.O_file (file_8k 1)) in
  (* Canned replies: the exchange itself allocates nothing. *)
  let canned = Hashtbl.create 4 in
  List.iter
    (fun h ->
      let req = Ro.ro_request_to_string (Ro.Get_obj h) in
      Hashtbl.replace canned req (Readonly.handle_request snap req))
    [ h0; h1 ];
  let exchange req =
    match Hashtbl.find_opt canned req with
    | Some reply -> reply
    | None -> Readonly.handle_request snap req
  in
  (* One cache slot: fetching the two files in turn misses every time. *)
  let c = Readonly.connect ~cache_objs:1 ~exchange ~pubkey:key.Rabin.pub ~clock () in
  List.iter (fun h -> ignore (Readonly.fetch c h)) [ h0; h1; h0; h1 ];
  Testkit.check_alloc_under "fetch miss of 8 KB" ~bound:9_216 (fun () ->
      ignore (Sys.opaque_identity (Readonly.fetch c h0)));
  match Readonly.fetch c h1 with
  | Ro.O_file data -> Testkit.check_string "verified file" (file_8k 1) data
  | _ -> Alcotest.fail "not a file"

(* Publishing: one encoder marshals every object of a build. *)
let test_snapshot_alloc () =
  let key = Lazy.force alloc_key in
  let clock = Simclock.create () in
  let now () = Nfs_types.time_of_us (Simclock.now_us clock) in
  let fs = Memfs.create ~fsid:1 ~now () in
  for d = 0 to 15 do
    match Memfs.mkdir fs root_cred ~dir:Memfs.root_id (Printf.sprintf "d%d" d) ~mode:0o755 with
    | Error _ -> assert false
    | Ok (dir, _) ->
        for f = 0 to 63 do
          write_8k fs ~dir (Printf.sprintf "f%d" f) ((d * 64) + f)
        done
  done;
  let snap = ref None in
  Testkit.check_alloc_under "snapshot of 1,024 8 KB files" ~bound:(20 * 1024 * 1024) (fun () ->
      snap := Some (Readonly.snapshot ~key ~now_s:0 fs));
  match !snap with
  | Some s -> Testkit.check_int "every object stored" (1024 + 16 + 1) (Readonly.object_count s)
  | None -> assert false

(* Every client shares a mirror's stored frames, so a corrupting wire
   must rewrite a copy: after a crowd of corrupted replies, each stored
   frame still carries the object its key names, byte for byte. *)
let test_corrupt_replies_leave_store () =
  let clock, obs, net = mk_world () in
  let fs, _, _ = mk_tree () in
  ignore (Simnet.add_host net "pub.test");
  ignore (Simnet.add_host net "client.test");
  let key = Rabin.generate ~bits:512 (Prng.create [ "replica-test"; "alias" ]) in
  let p = Replica.publisher ~obs ~net ~host:"pub.test" ~key ~clock fs in
  let mirrors =
    Array.init 2 (fun m ->
        let name = Printf.sprintf "m%d.test" m in
        let mi = Replica.mirror ~obs ~clock () in
        Replica.attach net mi (Simnet.add_host net name);
        mi)
  in
  let snap = Replica.publish p in
  Testkit.check_int "fan-out clean" 0
    (Replica.fan_out p [ Replica.target ~addr:"m0.test"; Replica.target ~addr:"m1.test" ]);
  let objs = List.sort compare (Readonly.fold_store snap (fun h b acc -> (h, b) :: acc) []) in
  let conns =
    Array.mapi
      (fun m _ ->
        Simnet.connect net ~from_host:"client.test" ~addr:(Printf.sprintf "m%d.test" m)
          ~port:Replica.ro_port ~proto:Sfs_net.Costmodel.Tcp)
      mirrors
  in
  let clients =
    Array.map
      (fun conn ->
        Readonly.connect ~cache_objs:1 ~exchange:(Testkit.call net conn) ~pubkey:key.Rabin.pub ~clock ())
      conns
  in
  (* Corrupt every reply, at a different byte each time. *)
  let k = ref 0 in
  Simnet.set_injector net
    (Some
       {
         Simnet.inj_message =
           (fun ~dir ~src:_ ~dst:_ ~size:_ ->
             incr k;
             if dir = Simnet.To_client then Simnet.Fault_corrupt (!k * 7919) else Simnet.Fault_pass);
         inj_host_down = (fun _ -> false);
         inj_host_epoch = (fun _ -> 0);
       });
  let refused = ref 0 in
  for _ = 1 to 3 do
    Array.iter
      (fun c ->
        List.iter
          (fun (h, _) ->
            match Readonly.fetch c h with
            | _ -> ()
            | exception Readonly.Verification_failed _ -> incr refused)
          objs)
      clients
  done;
  Testkit.check_bool "corrupted replies were refused" true (!refused > 0);
  Simnet.set_injector net None;
  Array.iter
    (fun conn ->
      List.iter
        (fun (h, bytes) ->
          let frame = Simnet.inject conn (Ro.ro_request_to_string (Ro.Get_obj h)) in
          Testkit.check_bool "clean Get_obj returns the original bytes" true
            (frame = Ro.ro_response_to_string (Ro.Obj_is bytes));
          match Ro.obj_frame_view frame with
          | Ok v ->
              Testkit.check_bool "stored frame hashes to its key" true
                (Sfs_crypto.Sha1.digest (Slice.to_string v) = h)
          | Error e -> Alcotest.fail e)
        objs)
    conns

let suite =
  ( "replica",
    [
      Alcotest.test_case "vcache LRU" `Quick test_vcache_lru;
      Alcotest.test_case "incremental snapshot vs oracle" `Quick test_incremental_snapshot;
      Alcotest.test_case "fan-out delta and evict" `Quick test_fanout_delta_and_evict;
      Alcotest.test_case "refresh skip + rollback refusal" `Quick test_refresh_skip_and_rollback;
      Alcotest.test_case "read-only reply byte pin" `Quick test_reply_byte_pin;
      Alcotest.test_case "obj_frame_view errors" `Quick test_obj_frame_view_errors;
      Alcotest.test_case "mirror Get_obj allocation" `Quick test_mirror_serve_alloc;
      Alcotest.test_case "fetch miss allocation" `Quick test_fetch_miss_alloc;
      Alcotest.test_case "snapshot allocation" `Quick test_snapshot_alloc;
      Alcotest.test_case "corrupt replies leave stored frames" `Quick test_corrupt_replies_leave_store;
    ]
    @ Testkit.to_alcotest [ prop_flipped_object_bit; prop_flipped_root_bit; prop_obj_frame_bytes ] )
