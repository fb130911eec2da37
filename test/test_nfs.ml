open Sfs_nfs
open Nfs_types
module Simos = Sfs_os.Simos
module Simclock = Sfs_net.Simclock
module Simnet = Sfs_net.Simnet
module Costmodel = Sfs_net.Costmodel

let now_fn clock () = time_of_us (Simclock.now_us clock)

let setup () =
  let clock = Simclock.create () in
  let fs = Memfs.create ~now:(now_fn clock) () in
  (clock, fs)

let alice = { Simos.cred_uid = 1000; cred_gid = 1000; cred_groups = [ 1000 ] }
let bob = { Simos.cred_uid = 1001; cred_gid = 1001; cred_groups = [ 1001 ] }
let root = Simos.cred_of_user Simos.root_user

let ok msg = function Ok v -> v | Error s -> Alcotest.fail (msg ^ ": " ^ status_to_string s)
let expect_err msg want = function
  | Error s when s = want -> ()
  | Error s -> Alcotest.fail (Printf.sprintf "%s: got %s" msg (status_to_string s))
  | Ok _ -> Alcotest.fail (msg ^ ": unexpectedly succeeded")

(* --- Memfs --- *)

let test_memfs_create_read_write () =
  let _, fs = setup () in
  let id, attr = ok "create" (Memfs.create_file fs root ~dir:Memfs.root_id "hello.txt" ~mode:0o644) in
  Testkit.check_bool "regular" true (attr.ftype = NF_REG);
  Testkit.check_int "empty" 0 attr.size;
  let attr = ok "write" (Memfs.write fs root id ~off:0 "hello world") in
  Testkit.check_int "size" 11 attr.size;
  let data, eof = ok "read" (Memfs.read fs root id ~off:0 ~count:100) in
  Testkit.check_string "contents" "hello world" data;
  Testkit.check_bool "eof" true eof;
  let data, eof = ok "partial" (Memfs.read fs root id ~off:6 ~count:3) in
  Testkit.check_string "offset read" "wor" data;
  Testkit.check_bool "not eof" false eof;
  (* Sparse extension via write at offset. *)
  let attr = ok "sparse" (Memfs.write fs root id ~off:20 "end") in
  Testkit.check_int "extended" 23 attr.size;
  let data, _ = ok "hole" (Memfs.read fs root id ~off:11 ~count:9) in
  Testkit.check_string "zero filled" (String.make 9 '\000') data

let test_memfs_lookup_and_dirs () =
  let _, fs = setup () in
  let d1, _ = ok "mkdir" (Memfs.mkdir fs root ~dir:Memfs.root_id "sub" ~mode:0o755) in
  let f1, _ = ok "create" (Memfs.create_file fs root ~dir:d1 "f" ~mode:0o644) in
  let id, attr = ok "lookup" (Memfs.lookup fs root ~dir:d1 "f") in
  Testkit.check_int "same inode" f1 id;
  Testkit.check_bool "file" true (attr.ftype = NF_REG);
  expect_err "missing" NFS3ERR_NOENT (Memfs.lookup fs root ~dir:d1 "nope");
  expect_err "not a dir" NFS3ERR_NOTDIR (Memfs.lookup fs root ~dir:f1 "x");
  let entries = ok "readdir" (Memfs.readdir fs root d1) in
  Alcotest.(check (list string)) "entries" [ "f" ] (List.map (fun e -> e.d_name) entries);
  (* nlink accounting: root gains a link from the subdir. *)
  let ra = ok "root attr" (Memfs.getattr fs Memfs.root_id) in
  Testkit.check_int "root nlink" 3 ra.nlink

let test_memfs_permissions () =
  let _, fs = setup () in
  let home, _ = ok "mkhome" (Memfs.mkdir fs root ~dir:Memfs.root_id "home" ~mode:0o777) in
  let id, _ = ok "create" (Memfs.create_file fs alice ~dir:home "private" ~mode:0o600) in
  ignore (ok "owner writes" (Memfs.write fs alice id ~off:0 "secret"));
  expect_err "bob cannot read" NFS3ERR_ACCES (Memfs.read fs bob id ~off:0 ~count:10);
  expect_err "bob cannot write" NFS3ERR_ACCES (Memfs.write fs bob id ~off:0 "x");
  ignore (ok "root reads anyway" (Memfs.read fs root id ~off:0 ~count:10));
  (* chmod by owner then group access *)
  ignore (ok "chmod" (Memfs.setattr fs alice id { sattr_empty with set_mode = Some 0o644 }));
  let data, _ = ok "bob reads now" (Memfs.read fs bob id ~off:0 ~count:10) in
  Testkit.check_string "data" "secret" data;
  expect_err "bob cannot chmod" NFS3ERR_PERM
    (Memfs.setattr fs bob id { sattr_empty with set_mode = Some 0o777 });
  expect_err "alice cannot chown" NFS3ERR_PERM
    (Memfs.setattr fs alice id { sattr_empty with set_uid = Some 1001 });
  (* Anonymous matches "other" bits. *)
  ignore (ok "anon read on 644" (Memfs.read fs Simos.anonymous_cred id ~off:0 ~count:6));
  ignore (ok "chmod 640" (Memfs.setattr fs alice id { sattr_empty with set_mode = Some 0o640 }));
  expect_err "anon denied on 640" NFS3ERR_ACCES (Memfs.read fs Simos.anonymous_cred id ~off:0 ~count:6)

let test_memfs_remove_rename () =
  let _, fs = setup () in
  let _, _ = ok "create" (Memfs.create_file fs root ~dir:Memfs.root_id "a" ~mode:0o644) in
  let d, _ = ok "mkdir" (Memfs.mkdir fs root ~dir:Memfs.root_id "d" ~mode:0o755) in
  expect_err "rmdir on file" NFS3ERR_NOTDIR (Memfs.rmdir fs root ~dir:Memfs.root_id "a");
  expect_err "remove on dir" NFS3ERR_ISDIR (Memfs.remove fs root ~dir:Memfs.root_id "d");
  ignore (ok "rename" (Memfs.rename fs root ~from_dir:Memfs.root_id ~from_name:"a" ~to_dir:d ~to_name:"b"));
  expect_err "old name gone" NFS3ERR_NOENT (Memfs.lookup fs root ~dir:Memfs.root_id "a");
  ignore (ok "new name" (Memfs.lookup fs root ~dir:d "b"));
  expect_err "rmdir non-empty" NFS3ERR_NOTEMPTY (Memfs.rmdir fs root ~dir:Memfs.root_id "d");
  ignore (ok "remove file" (Memfs.remove fs root ~dir:d "b"));
  ignore (ok "rmdir now" (Memfs.rmdir fs root ~dir:Memfs.root_id "d"));
  expect_err "dir gone" NFS3ERR_NOENT (Memfs.lookup fs root ~dir:Memfs.root_id "d")

let test_memfs_links_and_symlinks () =
  let _, fs = setup () in
  let f, _ = ok "create" (Memfs.create_file fs root ~dir:Memfs.root_id "orig" ~mode:0o644) in
  ignore (ok "write" (Memfs.write fs root f ~off:0 "shared"));
  let attr = ok "link" (Memfs.link fs root ~target:f ~dir:Memfs.root_id "hard") in
  Testkit.check_int "nlink 2" 2 attr.nlink;
  ignore (ok "remove orig" (Memfs.remove fs root ~dir:Memfs.root_id "orig"));
  let id, attr = ok "lookup hard" (Memfs.lookup fs root ~dir:Memfs.root_id "hard") in
  Testkit.check_int "nlink 1" 1 attr.nlink;
  let data, _ = ok "data survives" (Memfs.read fs root id ~off:0 ~count:10) in
  Testkit.check_string "shared data" "shared" data;
  let s, _ = ok "symlink" (Memfs.symlink fs root ~dir:Memfs.root_id "sym" ~target:"/sfs/somewhere") in
  Testkit.check_string "readlink" "/sfs/somewhere" (ok "readlink" (Memfs.readlink fs root s));
  expect_err "readlink on file" NFS3ERR_INVAL (Memfs.readlink fs root id)

let test_memfs_truncate () =
  let _, fs = setup () in
  let f, _ = ok "create" (Memfs.create_file fs root ~dir:Memfs.root_id "t" ~mode:0o644) in
  ignore (ok "write" (Memfs.write fs root f ~off:0 "0123456789"));
  let a = ok "shrink" (Memfs.setattr fs root f { sattr_empty with set_size = Some 4 }) in
  Testkit.check_int "shrunk" 4 a.size;
  let data, _ = ok "read" (Memfs.read fs root f ~off:0 ~count:10) in
  Testkit.check_string "truncated" "0123" data;
  let a = ok "grow" (Memfs.setattr fs root f { sattr_empty with set_size = Some 8 }) in
  Testkit.check_int "grown" 8 a.size;
  let data, _ = ok "read2" (Memfs.read fs root f ~off:0 ~count:10) in
  Testkit.check_string "zero pad" "0123\000\000\000\000" data

(* Bytes cut off by a truncation never come back: a later write past
   the cut leaves zeros in the hole, within a block and across blocks. *)
let test_memfs_truncate_hole () =
  let _, fs = setup () in
  let f, _ = ok "create" (Memfs.create_file fs root ~dir:Memfs.root_id "s" ~mode:0o644) in
  ignore (ok "write" (Memfs.write fs root f ~off:0 "SECRETSECRET"));
  ignore (ok "truncate" (Memfs.setattr fs root f { sattr_empty with set_size = Some 0 }));
  ignore (ok "write past the cut" (Memfs.write fs root f ~off:8 "xy"));
  let data, eof = ok "read" (Memfs.read fs root f ~off:0 ~count:100) in
  Testkit.check_string "hole reads zeros" (String.make 8 '\000' ^ "xy") data;
  Testkit.check_bool "eof" true eof;
  let g, _ = ok "create" (Memfs.create_file fs root ~dir:Memfs.root_id "g" ~mode:0o644) in
  ignore (ok "write" (Memfs.write fs root g ~off:0 (String.make 20_000 'S')));
  ignore (ok "cut mid-block" (Memfs.setattr fs root g { sattr_empty with set_size = Some 10_000 }));
  ignore (ok "write past the cut" (Memfs.write fs root g ~off:16_400 "z"));
  let data, _ = ok "read" (Memfs.read fs root g ~off:0 ~count:20_000) in
  Testkit.check_int "size" 16_401 (String.length data);
  Testkit.check_string "kept" (String.make 10_000 'S') (String.sub data 0 10_000);
  Testkit.check_string "hole" (String.make 6_400 '\000') (String.sub data 10_000 6_400);
  Testkit.check_string "tail" "z" (String.sub data 16_400 1)

(* The block store's costs: an aligned 8 KB read of a stored block is
   the stored string itself, the very string an aligned whole-block
   write handed in; extending a file to 64 MB allocates nothing for
   its hole, which reads back as zeros. *)
let test_memfs_block_alloc () =
  let _, fs = setup () in
  let f, _ = ok "create" (Memfs.create_file fs root ~dir:Memfs.root_id "b" ~mode:0o644) in
  let block = String.init 8192 (fun i -> Char.chr (i land 0xff)) in
  ignore (ok "write" (Memfs.write fs root f ~off:8192 block));
  let got = ref "" in
  let read () = got := fst (ok "read" (Memfs.read fs root f ~off:8192 ~count:8192)) in
  read ();
  Testkit.check_alloc_under "aligned 8 KB Memfs.read" ~bound:224 read;
  Testkit.check_bool "served as stored" true (!got == block);
  let big = 64 * 1024 * 1024 in
  Testkit.check_alloc_under "setattr to 64 MB" ~bound:1024 (fun () ->
      ignore (ok "extend" (Memfs.setattr fs root f { sattr_empty with set_size = Some big })));
  let data, eof = ok "read hole" (Memfs.read fs root f ~off:(32 * 1024 * 1024) ~count:8192) in
  Testkit.check_string "hole" (String.make 8192 '\000') data;
  Testkit.check_bool "not eof" false eof;
  let data, eof = ok "read end" (Memfs.read fs root f ~off:(big - 100) ~count:8192) in
  Testkit.check_string "end" (String.make 100 '\000') data;
  Testkit.check_bool "eof" true eof

let test_memfs_bad_names () =
  let _, fs = setup () in
  List.iter
    (fun name ->
      expect_err ("name " ^ name) NFS3ERR_INVAL
        (Memfs.create_file fs root ~dir:Memfs.root_id name ~mode:0o644))
    [ ""; "."; ".."; "a/b" ];
  expect_err "long name" NFS3ERR_NAMETOOLONG
    (Memfs.create_file fs root ~dir:Memfs.root_id (String.make 300 'n') ~mode:0o644)

(* --- Disk model --- *)

let test_diskmodel_caching () =
  let clock = Simclock.create () in
  let disk = Diskmodel.create clock in
  (* First read misses (positioning + transfer); repeat hits (memcpy). *)
  let _, cold = Simclock.time clock (fun () -> Diskmodel.read disk ~fileid:1 ~off:0 ~bytes:8192) in
  let _, warm = Simclock.time clock (fun () -> Diskmodel.read disk ~fileid:1 ~off:0 ~bytes:8192) in
  Testkit.check_bool "cold read costs positioning" true (cold > 8000.0);
  Testkit.check_bool "warm read is memcpy" true (warm < 100.0);
  (* Sequential read amortizes positioning. *)
  let _, seq = Simclock.time clock (fun () -> Diskmodel.read disk ~fileid:1 ~off:8192 ~bytes:8192) in
  Testkit.check_bool "sequential cheap" true (seq < 1000.0)

let test_diskmodel_writes () =
  let clock = Simclock.create () in
  let disk = Diskmodel.create clock in
  let _, async = Simclock.time clock (fun () -> Diskmodel.write disk ~fileid:1 ~off:0 ~bytes:8192 ~stable:false) in
  Testkit.check_bool "async write cheap" true (async < 100.0);
  let _, sync = Simclock.time clock (fun () -> Diskmodel.write disk ~fileid:2 ~off:0 ~bytes:8192 ~stable:true) in
  Testkit.check_bool "sync write costs positioning" true (sync > 8000.0);
  (* Flush pays for the dirty block. *)
  let _, flush = Simclock.time clock (fun () -> Diskmodel.flush disk ~fileid:1 ()) in
  Testkit.check_bool "flush writes back" true (flush > 8000.0);
  let _, reflush = Simclock.time clock (fun () -> Diskmodel.flush disk ~fileid:1 ()) in
  Testkit.check_bool "second flush free" true (reflush < 1.0)

(* --- NFS server + client over the simulated network --- *)

(* The fourth component reads how many NFS calls the server ran. *)
let make_network_fs () =
  let clock = Simclock.create () in
  let obs = Sfs_obs.Obs.create ~now_us:(fun () -> Simclock.now_us clock) () in
  let net = Simnet.create clock in
  let host = Simnet.add_host net "nfs.example.com" in
  let fs = Memfs.create ~now:(now_fn clock) () in
  let disk = Diskmodel.create clock in
  let backend = Memfs_ops.make ~fs ~disk in
  let server = Nfs_server.create ~obs backend in
  Simnet.listen net host ~port:2049 (Nfs_server.service server);
  (clock, net, fs, fun () -> Sfs_obs.Obs.counter obs "nfs.calls")

let test_nfs_end_to_end () =
  let _, net, _, _ = make_network_fs () in
  let ops, _ = Nfs_client.mount net ~from_host:"client" ~addr:"nfs.example.com" ~proto:Costmodel.Udp ~cred:root in
  let dir, _ = ok "mkdir" (ops.Fs_intf.fs_mkdir root ~dir:ops.Fs_intf.fs_root "docs" ~mode:0o755) in
  let f, _ = ok "create" (ops.Fs_intf.fs_create root ~dir "paper.txt" ~mode:0o644) in
  ignore (ok "write" (ops.Fs_intf.fs_write root f ~off:0 ~stable:false "self-certifying"));
  let data, eof, attr = ok "read" (ops.Fs_intf.fs_read root f ~off:0 ~count:100) in
  Testkit.check_string "data" "self-certifying" data;
  Testkit.check_bool "eof" true eof;
  Testkit.check_int "attr size" 15 attr.size;
  let h2, _ = ok "lookup" (ops.Fs_intf.fs_lookup root ~dir "paper.txt") in
  Testkit.check_string "same fh" f h2;
  let entries = ok "readdir" (ops.Fs_intf.fs_readdir root dir) in
  Alcotest.(check (list string)) "names" [ "paper.txt" ] (List.map (fun e -> e.d_name) entries);
  expect_err "enoent over wire" NFS3ERR_NOENT (ops.Fs_intf.fs_lookup root ~dir "missing");
  ignore (ok "remove" (ops.Fs_intf.fs_remove root ~dir "paper.txt"));
  expect_err "gone" NFS3ERR_NOENT (ops.Fs_intf.fs_lookup root ~dir "paper.txt")

let test_nfs_credentials_cross_wire () =
  let _, net, _, _ = make_network_fs () in
  let ops, _ = Nfs_client.mount net ~from_host:"client" ~addr:"nfs.example.com" ~proto:Costmodel.Udp ~cred:root in
  let home, _ = ok "mkhome" (ops.Fs_intf.fs_mkdir root ~dir:ops.Fs_intf.fs_root "home" ~mode:0o777) in
  let f, _ = ok "create" (ops.Fs_intf.fs_create alice ~dir:home "mine" ~mode:0o600) in
  ignore (ok "alice writes" (ops.Fs_intf.fs_write alice f ~off:0 ~stable:false "private"));
  expect_err "bob denied over wire" NFS3ERR_ACCES (ops.Fs_intf.fs_read bob f ~off:0 ~count:10);
  (* The classic NFS weakness our attack demo exploits: nothing stops a
     client from claiming alice's uid. *)
  let fake_alice = { Simos.cred_uid = 1000; cred_gid = 1000; cred_groups = [] } in
  ignore (ok "forged credential accepted" (ops.Fs_intf.fs_read fake_alice f ~off:0 ~count:10))

let test_nfs_bad_handle () =
  let _, net, _, _ = make_network_fs () in
  let ops, _ = Nfs_client.mount net ~from_host:"client" ~addr:"nfs.example.com" ~proto:Costmodel.Udp ~cred:root in
  expect_err "bad handle" NFS3ERR_BADHANDLE (ops.Fs_intf.fs_getattr root "bogus");
  expect_err "stale id" NFS3ERR_STALE (ops.Fs_intf.fs_getattr root "nfs3:99999")

let test_nfs_garbage_resilience () =
  (* The server must answer something parseable to arbitrary bytes. *)
  let _, net, _, _ = make_network_fs () in
  let conn = Simnet.connect net ~from_host:"x" ~addr:"nfs.example.com" ~port:2049 ~proto:Costmodel.Udp in
  let reply = Testkit.call ~proto:Costmodel.Udp net conn "total garbage" in
  match Sfs_xdr.Sunrpc.msg_of_string reply with
  | Ok (Sfs_xdr.Sunrpc.Reply _) -> ()
  | _ -> Alcotest.fail "server crashed on garbage"

(* MOUNT and the NFS calls after it share one connection and so one
   duplicate request cache: every call must take a fresh entry, which
   needs a distinct xid per call. *)
let test_nfs_mount_xids_distinct () =
  let clock = Simclock.create () in
  let obs = Sfs_obs.Obs.create ~now_us:(fun () -> Simclock.now_us clock) () in
  let net = Simnet.create clock in
  let host = Simnet.add_host net "nfs.example.com" in
  let fs = Memfs.create ~now:(now_fn clock) () in
  let server = Nfs_server.create ~obs (Memfs_ops.make ~fs ~disk:(Diskmodel.create clock)) in
  Simnet.listen net host ~port:2049 (Nfs_server.service server);
  let ops, _ =
    Nfs_client.mount net ~from_host:"client" ~addr:"nfs.example.com" ~proto:Costmodel.Udp ~cred:root
  in
  for _ = 1 to 3 do
    ignore (ok "getattr" (ops.Fs_intf.fs_getattr root ops.Fs_intf.fs_root))
  done;
  Testkit.check_int "nfs calls" 3 (Sfs_obs.Obs.counter obs "nfs.calls");
  Testkit.check_int "one cache entry per rpc, MOUNT included" 4
    (Sfs_obs.Obs.counter obs "nfs.drc_insert")

(* The one duplicate request cache of both servers: FIFO eviction at
   the bound, a replaced key keeps its queue place, and an eviction
   hands the evicted entry back to the caller. *)
let test_drc_fifo () =
  let obs = Sfs_obs.Obs.create ~now_us:(fun () -> 0.0) () in
  let d = Drc.create ~obs ~bound:3 ~counters:"t" () in
  let admit k v = Drc.admit d k v in
  let check_evicted msg want got = Alcotest.(check (option string)) msg want got in
  check_evicted "1 fits" None (admit 1 "a");
  check_evicted "2 fits" None (admit 2 "b");
  check_evicted "3 fits" None (admit 3 "c");
  check_evicted "replacing 2 evicts nothing" None (admit 2 "b2");
  Alcotest.(check (option string)) "replaced" (Some "b2") (Drc.find d 2);
  check_evicted "4 evicts the oldest" (Some "a") (admit 4 "d");
  Alcotest.(check (option string)) "1 is gone" None (Drc.find d 1);
  check_evicted "2 kept its place" (Some "b2") (admit 5 "e");
  Testkit.check_int "live" 3 (Drc.length d);
  Testkit.check_int "inserts" 5 (Sfs_obs.Obs.counter obs "t.drc_insert");
  Testkit.check_int "evictions" 2 (Sfs_obs.Obs.counter obs "t.drc_evict");
  Drc.clear d;
  Testkit.check_int "cleared" 0 (Drc.length d);
  check_evicted "room again" None (admit 6 "f")

(* A Sun RPC call to the NFS 3 program, as bytes. *)
let nfs_call ~xid ~proc args =
  Sfs_xdr.Sunrpc.msg_to_string
    (Sfs_xdr.Sunrpc.Call
       {
         Sfs_xdr.Sunrpc.xid;
         prog = Nfs_proto.prog;
         vers = Nfs_proto.vers;
         proc;
         trace = 0;
         span = 0;
         cred = Sfs_xdr.Sunrpc.Auth_unix { stamp = 0; machine = "c"; uid = 0; gid = 0; gids = [] };
         args;
       })

(* A handler for one connection of an NFS 3 server holding one 8 KB
   file, and the file's wire handle. *)
let nfs_service_with_file ?obs () =
  let clock = Simclock.create () in
  let fs = Memfs.create ~now:(now_fn clock) () in
  let backend = Memfs_ops.make ~fs ~disk:(Diskmodel.create clock) in
  let id, _ = ok "create" (Memfs.create_file fs root ~dir:Memfs.root_id "f" ~mode:0o644) in
  ignore (ok "write" (Memfs.write fs root id ~off:0 (String.init 8192 (fun i -> Char.chr (i land 255)))));
  let server = Nfs_server.create ?obs backend in
  let fh, _ = ok "lookup" (backend.Fs_intf.fs_lookup root ~dir:backend.Fs_intf.fs_root "f") in
  (Nfs_server.service server ~peer:"client", "nfs3:" ^ fh)

(* The NFS 3 server's duplicate request cache, driven through
   [Nfs_server.service]: a byte-identical retransmission replays, a
   reused xid with other bytes executes again, and the 129th distinct
   xid evicts the first. *)
let test_nfs_service_drc () =
  let obs = Sfs_obs.Obs.create ~now_us:(fun () -> 0.0) () in
  let serve, fh = nfs_service_with_file ~obs () in
  let getattr xid = nfs_call ~xid ~proc:Nfs_proto.proc_getattr (Sfs_xdr.Xdr.encode enc_fh fh) in
  let read xid = nfs_call ~xid ~proc:Nfs_proto.proc_read (Sfs_xdr.Xdr.encode Nfs_proto.enc_read_args (fh, 0, 16)) in
  let counter = Sfs_obs.Obs.counter obs in
  let executed () = counter "nfs.calls" in
  let hits () = counter "recover.retransmit_hit" in
  let live () = counter "nfs.drc_insert" - counter "nfs.drc_evict" in
  let first = serve (getattr 1) in
  Testkit.check_string "retransmission replays" first (serve (getattr 1));
  Testkit.check_int "one hit" 1 (hits ());
  Testkit.check_int "executed once" 1 (executed ());
  let other = serve (read 1) in
  Testkit.check_bool "other bytes, same xid: executed" true (other <> first);
  Testkit.check_int "executed again" 2 (executed ());
  Testkit.check_int "no hit" 1 (hits ());
  Testkit.check_int "replaced in place" 1 (live ());
  Testkit.check_string "the replacement replays" other (serve (read 1));
  Testkit.check_int "second hit" 2 (hits ());
  (* Garbage is answered but never cached. *)
  ignore (serve "total garbage");
  Testkit.check_int "garbage executes nothing" 2 (executed ());
  Testkit.check_int "garbage not cached" 1 (live ());
  for xid = 2 to 128 do
    ignore (serve (getattr xid))
  done;
  Testkit.check_int "full" 128 (live ());
  Testkit.check_int "nothing evicted yet" 0 (counter "nfs.drc_evict");
  ignore (serve (getattr 129));
  Testkit.check_int "129th evicts one" 1 (counter "nfs.drc_evict");
  Testkit.check_int "still full" 128 (live ());
  let calls = executed () and h = hits () in
  ignore (serve (read 1));
  Testkit.check_int "evicted xid: executed" (calls + 1) (executed ());
  Testkit.check_int "evicted xid: no hit" h (hits ());
  ignore (serve (getattr 129));
  Testkit.check_int "newest still replays" (h + 1) (hits ())

(* One 8 KB NFS 3 READ through [Nfs_server.service] once its cache is
   full: the reply header and the results are marshaled into one
   encoder, and the one payload-sized allocation is the wire message
   the cache keeps.  It reads 10,056 B; copying the results out of
   their own encoder and decoding each call twice read 18,776 B. *)
let test_nfs_service_read_alloc () =
  let serve, fh = nfs_service_with_file () in
  let read xid =
    nfs_call ~xid ~proc:Nfs_proto.proc_read (Sfs_xdr.Xdr.encode Nfs_proto.enc_read_args (fh, 0, 8192))
  in
  for xid = 1 to 200 do
    ignore (serve (read xid))
  done;
  let call = read 201 in
  let reply = ref "" in
  Testkit.check_alloc_under "8 KB READ through the NFS 3 server" ~bound:12_510 (fun () ->
      reply := serve call);
  Testkit.check_bool "a full reply" true (String.length !reply > 8192)

(* A MOUNT that fails must release its connection: under an admission
   limit of one, the next mount would otherwise be refused. *)
let test_nfs_failed_mount_releases_conn () =
  let clock = Simclock.create () in
  let net = Simnet.create clock in
  let host = Simnet.add_host net "nfs.example.com" in
  let fs = Memfs.create ~now:(now_fn clock) () in
  let server = Nfs_server.create (Memfs_ops.make ~fs ~disk:(Diskmodel.create clock)) in
  Simnet.listen net host ~port:2049 (Nfs_server.service server);
  Simnet.set_admission host (Some 1);
  let drop_all = Simnet.passive_tap () in
  drop_all.Simnet.on_message <- (fun _ _ -> Simnet.Drop);
  Simnet.set_default_tap net (Some drop_all);
  let mount () =
    Nfs_client.mount net ~from_host:"client" ~addr:"nfs.example.com" ~proto:Costmodel.Udp ~cred:root
  in
  (match mount () with
  | exception Nfs_client.Rpc_failure _ -> ()
  | _ -> Alcotest.fail "mounted through a tap that drops everything");
  Testkit.check_int "slot released" 0 (Simnet.host_active_conns host);
  Simnet.set_default_tap net None;
  match mount () with
  | exception (Simnet.Timeout | Nfs_client.Rpc_failure _) -> Alcotest.fail "second mount refused"
  | ops, _ -> ignore (ok "getattr" (ops.Fs_intf.fs_getattr root ops.Fs_intf.fs_root))

(* --- Cachefs --- *)

let test_cachefs_attr_cache () =
  let clock, net, _, server_calls = make_network_fs () in
  let ops, _ = Nfs_client.mount net ~from_host:"client" ~addr:"nfs.example.com" ~proto:Costmodel.Udp ~cred:root in
  let cache = Cachefs.create ~clock ~policy:Cachefs.nfs_policy ops in
  let cops = Cachefs.ops cache in
  let f, _ = ok "create" (cops.Fs_intf.fs_create root ~dir:cops.Fs_intf.fs_root "f" ~mode:0o644) in
  (* Create primes the attribute cache; getattrs then bypass the server. *)
  let calls1 = server_calls () in
  ignore (ok "getattr1" (cops.Fs_intf.fs_getattr root f));
  ignore (ok "getattr2" (cops.Fs_intf.fs_getattr root f));
  ignore (ok "getattr3" (cops.Fs_intf.fs_getattr root f));
  Testkit.check_int "cached getattrs hit no server" calls1 (server_calls ());
  (* After the TTL expires the attribute is refetched. *)
  Simclock.advance clock 4_000_000.0;
  ignore (ok "getattr4" (cops.Fs_intf.fs_getattr root f));
  Testkit.check_bool "ttl expiry refetches" true (server_calls () > calls1)

let test_cachefs_data_cache () =
  let clock, net, _, server_calls = make_network_fs () in
  let ops, _ = Nfs_client.mount net ~from_host:"client" ~addr:"nfs.example.com" ~proto:Costmodel.Udp ~cred:root in
  let cache = Cachefs.create ~clock ~policy:Cachefs.nfs_policy ops in
  let cops = Cachefs.ops cache in
  let f, _ = ok "create" (cops.Fs_intf.fs_create root ~dir:cops.Fs_intf.fs_root "data" ~mode:0o644) in
  let block = String.make 8192 'd' in
  ignore (ok "write" (cops.Fs_intf.fs_write root f ~off:0 ~stable:false block));
  let calls = server_calls () in
  let data, _, _ = ok "read" (cops.Fs_intf.fs_read root f ~off:0 ~count:8192) in
  Testkit.check_string "contents" block data;
  Testkit.check_int "served from cache" calls (server_calls ())

let test_cachefs_lease_invalidation () =
  (* SFS-style: an invalidation delivered through the queue drops the
     cache entry before its TTL. *)
  let clock, net, _, _ = make_network_fs () in
  let ops, _ = Nfs_client.mount net ~from_host:"client" ~addr:"nfs.example.com" ~proto:Costmodel.Udp ~cred:root in
  let queue = ref [] in
  let cache =
    Cachefs.create
      ~take_invalidations:(fun () ->
        let q = !queue in
        queue := [];
        q)
      ~clock ~policy:Cachefs.sfs_policy ops
  in
  let cops = Cachefs.ops cache in
  let f, _ = ok "create" (cops.Fs_intf.fs_create root ~dir:cops.Fs_intf.fs_root "shared" ~mode:0o644) in
  ignore (ok "prime" (cops.Fs_intf.fs_getattr root f));
  (* Another client writes through the uncached ops... *)
  ignore (ok "foreign write" (ops.Fs_intf.fs_write root f ~off:0 ~stable:false "v2"));
  (* ...the server queues an invalidation; once drained, the next
     getattr refetches and sees the new size. *)
  queue := [ f ];
  let a = ok "getattr sees update" (cops.Fs_intf.fs_getattr root f) in
  Testkit.check_int "fresh size" 2 a.size

let test_cachefs_hit_permissions () =
  (* Regression: a shared cache must not let one user's hits bypass
     another user's permission checks (the section 5.1 hazard). *)
  List.iter
    (fun (what, policy) ->
      let check msg = expect_err (what ^ ": " ^ msg) NFS3ERR_ACCES in
      let clock, net, _, _ = make_network_fs () in
      let ops, _ = Nfs_client.mount net ~from_host:"client" ~addr:"nfs.example.com" ~proto:Costmodel.Udp ~cred:root in
      let cops = Cachefs.ops (Cachefs.create ~clock ~policy ops) in
      let dir, _ = ok "mkdir" (cops.Fs_intf.fs_mkdir root ~dir:cops.Fs_intf.fs_root "locked" ~mode:0o700) in
      (* The directory's attributes (noted by mkdir) will lapse a second
         before the entries made now. *)
      Simclock.advance clock 2_000_000.0;
      let f, _ = ok "create" (cops.Fs_intf.fs_create root ~dir "secret" ~mode:0o600) in
      ignore (ok "write" (cops.Fs_intf.fs_write root f ~off:0 ~stable:false "classified"));
      (* Prime the caches as root, a negative entry included. *)
      ignore (ok "prime lookup" (cops.Fs_intf.fs_lookup root ~dir "secret"));
      ignore (ok "prime read" (cops.Fs_intf.fs_read root f ~off:0 ~count:100));
      expect_err "prime miss" NFS3ERR_NOENT (cops.Fs_intf.fs_lookup root ~dir "ghost");
      (* alice now asks through the same cache.  Under the NFS policy
         root's create dropped the directory's attributes. *)
      check "cached lookup checks exec" (cops.Fs_intf.fs_lookup alice ~dir "secret");
      check "cached read checks read bits" (cops.Fs_intf.fs_read alice f ~off:0 ~count:100);
      check "negative entry checks exec" (cops.Fs_intf.fs_lookup alice ~dir "ghost");
      (* With the directory's attributes lapsed and the name still
         fresh, root's entry is no evidence that alice may search. *)
      Simclock.advance clock 1_500_000.0;
      check "lapsed directory" (cops.Fs_intf.fs_lookup alice ~dir "secret");
      ignore (ok "root still served" (cops.Fs_intf.fs_lookup root ~dir "secret")))
    [ ("sfs", Cachefs.sfs_policy); ("nfs", Cachefs.nfs_policy) ]

(* A namespace change needs write and search permission on the
   directory (POSIX): in a -w- directory alice can neither add, remove,
   link nor rename, and ACCESS says so.  Through the cache, a create she
   was refused leaves no entry to serve her once the directory's
   attributes lapse. *)
let test_dir_search_permission () =
  let _, fs = setup () in
  let dir, _ = ok "mkdir" (Memfs.mkdir fs root ~dir:Memfs.root_id "dropbox" ~mode:0o722) in
  let f, _ = ok "root create" (Memfs.create_file fs root ~dir "f" ~mode:0o666) in
  let sub, _ = ok "root mkdir" (Memfs.mkdir fs root ~dir "sub" ~mode:0o777) in
  ignore sub;
  let check msg = expect_err msg NFS3ERR_ACCES in
  check "create" (Memfs.create_file fs alice ~dir "mine" ~mode:0o644);
  check "mkdir" (Memfs.mkdir fs alice ~dir "d" ~mode:0o755);
  check "symlink" (Memfs.symlink fs alice ~dir "s" ~target:"f");
  check "remove" (Memfs.remove fs alice ~dir "f");
  check "rmdir" (Memfs.rmdir fs alice ~dir "sub");
  check "link" (Memfs.link fs alice ~target:f ~dir "g");
  check "rename out" (Memfs.rename fs alice ~from_dir:dir ~from_name:"f" ~to_dir:Memfs.root_id ~to_name:"f");
  let home, _ = ok "home" (Memfs.mkdir fs root ~dir:Memfs.root_id "home" ~mode:0o777) in
  let h, _ = ok "home file" (Memfs.create_file fs root ~dir:home "h" ~mode:0o666) in
  ignore h;
  check "rename in" (Memfs.rename fs alice ~from_dir:home ~from_name:"h" ~to_dir:dir ~to_name:"h");
  Testkit.check_int "ACCESS grants no modify" 0
    (ok "access" (Memfs.access fs alice dir (access_modify lor access_extend lor access_delete)));
  List.iter
    (fun (what, policy) ->
      let clock, net, _, _ = make_network_fs () in
      let ops, _ = Nfs_client.mount net ~from_host:"client" ~addr:"nfs.example.com" ~proto:Costmodel.Udp ~cred:root in
      let cops = Cachefs.ops (Cachefs.create ~clock ~policy ops) in
      let dir, _ = ok "mkdir" (cops.Fs_intf.fs_mkdir root ~dir:cops.Fs_intf.fs_root "dropbox" ~mode:0o722) in
      (* The directory's attributes lapse a second before any entry made now. *)
      Simclock.advance clock 2_000_000.0;
      check (what ^ ": create") (cops.Fs_intf.fs_create alice ~dir "mine" ~mode:0o644);
      ignore (ok "root create" (cops.Fs_intf.fs_create root ~dir "mine" ~mode:0o644));
      Simclock.advance clock 1_500_000.0;
      check (what ^ ": lookup after lapse") (cops.Fs_intf.fs_lookup alice ~dir "mine"))
    [ ("sfs", Cachefs.sfs_policy); ("nfs", Cachefs.nfs_policy) ]

(* READDIRPLUS needs only read permission, so listing an r-- directory
   is no evidence that the reader may search it: her later lookups go
   to the server, which refuses them, while root's are still served
   from the cache. *)
let test_cachefs_readdir_evidence () =
  List.iter
    (fun (what, policy) ->
      let check msg = expect_err (what ^ ": " ^ msg) NFS3ERR_ACCES in
      let clock, net, _, server_calls = make_network_fs () in
      let ops, _ = Nfs_client.mount net ~from_host:"client" ~addr:"nfs.example.com" ~proto:Costmodel.Udp ~cred:root in
      let cops = Cachefs.ops (Cachefs.create ~clock ~policy ops) in
      let dir, _ = ok "mkdir" (cops.Fs_intf.fs_mkdir root ~dir:cops.Fs_intf.fs_root "listing" ~mode:0o744) in
      ignore (ok "create" (cops.Fs_intf.fs_create root ~dir "entry" ~mode:0o644));
      Simclock.advance clock 2_000_000.0;
      let names = List.map (fun de -> de.d_name) (ok "readdir" (cops.Fs_intf.fs_readdir alice dir)) in
      Alcotest.(check (list string)) (what ^ ": listed") [ "entry" ] names;
      check "lookup while fresh" (cops.Fs_intf.fs_lookup alice ~dir "entry");
      Simclock.advance clock 1_500_000.0;
      check "lookup after lapse" (cops.Fs_intf.fs_lookup alice ~dir "entry");
      (* root lists and is served its own lookups without a server trip. *)
      ignore (ok "root readdir" (cops.Fs_intf.fs_readdir root dir));
      let calls = server_calls () in
      ignore (ok "root lookup" (cops.Fs_intf.fs_lookup root ~dir "entry"));
      Testkit.check_int (what ^ ": root served from cache") calls (server_calls ()))
    [ ("sfs", Cachefs.sfs_policy); ("nfs", Cachefs.nfs_policy) ]

let test_cachefs_negative_lookup () =
  let clock, net, _, server_calls = make_network_fs () in
  let ops, _ = Nfs_client.mount net ~from_host:"client" ~addr:"nfs.example.com" ~proto:Costmodel.Udp ~cred:root in
  (* Under leases (stamp attrs with a lease via a fake wrapping). *)
  let stamped =
    { ops with
      Fs_intf.fs_getattr = (fun c h -> Result.map (fun a -> { a with lease = 60 }) (ops.Fs_intf.fs_getattr c h));
      Fs_intf.fs_lookup =
        (fun c ~dir n -> Result.map (fun (h, a) -> (h, { a with lease = 60 })) (ops.Fs_intf.fs_lookup c ~dir n));
    }
  in
  let cache = Cachefs.create ~clock ~policy:Cachefs.sfs_policy stamped in
  let cops = Cachefs.ops cache in
  (* Prime the directory attributes so the negative entry gets a lease. *)
  ignore (ok "prime" (cops.Fs_intf.fs_getattr root cops.Fs_intf.fs_root));
  expect_err "first miss" NFS3ERR_NOENT (cops.Fs_intf.fs_lookup root ~dir:cops.Fs_intf.fs_root "ghost");
  let calls = server_calls () in
  expect_err "second miss cached" NFS3ERR_NOENT
    (cops.Fs_intf.fs_lookup root ~dir:cops.Fs_intf.fs_root "ghost");
  Testkit.check_int "no server trip for cached negative" calls (server_calls ());
  (* Creating the name must clear the negative entry. *)
  ignore (ok "create" (cops.Fs_intf.fs_create root ~dir:cops.Fs_intf.fs_root "ghost" ~mode:0o644));
  let ghost, _ = ok "now found" (cops.Fs_intf.fs_lookup root ~dir:cops.Fs_intf.fs_root "ghost") in
  (* So must every other mutation of ours that makes a name appear: the
     server calls back other clients, never the one that changed the
     directory. *)
  let appears what name (mutate : unit -> unit) =
    let dir = cops.Fs_intf.fs_root in
    expect_err (what ^ ": cached miss") NFS3ERR_NOENT (cops.Fs_intf.fs_lookup root ~dir name);
    mutate ();
    ignore (ok (what ^ ": found after") (cops.Fs_intf.fs_lookup root ~dir name))
  in
  let dir = cops.Fs_intf.fs_root in
  appears "mkdir" "d" (fun () -> ignore (ok "mkdir" (cops.Fs_intf.fs_mkdir root ~dir "d" ~mode:0o755)));
  appears "symlink" "s" (fun () -> ignore (ok "symlink" (cops.Fs_intf.fs_symlink root ~dir "s" ~target:"ghost")));
  appears "link" "hard" (fun () -> ignore (ok "link" (cops.Fs_intf.fs_link root ~target:ghost ~dir "hard")));
  appears "rename target" "moved" (fun () ->
      ok "rename" (cops.Fs_intf.fs_rename root ~from_dir:dir ~from_name:"ghost" ~to_dir:dir ~to_name:"moved"));
  (* NFS policy: negatives are never cached. *)
  let cache2 = Cachefs.create ~clock ~policy:Cachefs.nfs_policy ops in
  let cops2 = Cachefs.ops cache2 in
  expect_err "miss" NFS3ERR_NOENT (cops2.Fs_intf.fs_lookup root ~dir:cops2.Fs_intf.fs_root "phantom");
  let calls2 = server_calls () in
  expect_err "miss again" NFS3ERR_NOENT (cops2.Fs_intf.fs_lookup root ~dir:cops2.Fs_intf.fs_root "phantom");
  Testkit.check_bool "nfs policy refetches negatives" true (server_calls () > calls2)

(* A write-behind cache over a memfs whose WRITEs are logged as
   (offset, length), so a test can see each gather run arrive. *)
let make_gathering () =
  let clock = Simclock.create () in
  let fs = Memfs.create ~now:(now_fn clock) () in
  let backing = Memfs_ops.make ~fs ~disk:(Diskmodel.create clock) in
  let writes = ref [] in
  let logged =
    { backing with
      Fs_intf.fs_write =
        (fun c h ~off ~stable data ->
          writes := (off, String.length data) :: !writes;
          backing.Fs_intf.fs_write c h ~off ~stable data);
    }
  in
  let cops = Cachefs.ops (Cachefs.create ~write_behind:true ~clock ~policy:Cachefs.sfs_policy logged) in
  (backing, cops, writes)

let chunk i len = String.make len (Char.chr (Char.code 'a' + (i mod 26)))

(* Write [chunks] back to back from offset 0 as unstable writes. *)
let write_run cops f (chunks : string list) =
  ignore
    (List.fold_left
       (fun off data ->
         ignore (ok "buffered write" (cops.Fs_intf.fs_write root f ~off ~stable:false data));
         off + String.length data)
       0 chunks)

let server_bytes backing f =
  let a = ok "server getattr" (backing.Fs_intf.fs_getattr root f) in
  let data, _, _ = ok "server read" (backing.Fs_intf.fs_read root f ~off:0 ~count:a.size) in
  data

let test_cachefs_gather_runs () =
  let backing, cops, writes = make_gathering () in
  let dir = cops.Fs_intf.fs_root in
  let f1, _ = ok "create f1" (cops.Fs_intf.fs_create root ~dir "f1" ~mode:0o644) in
  let f2, _ = ok "create f2" (cops.Fs_intf.fs_create root ~dir "f2" ~mode:0o644) in
  (* Two runs back to back through the one gather buffer, the second
     shorter: the switch to f2 flushes f1's run. *)
  let run1 = List.init 3 (fun i -> chunk i 1000) and run2 = List.init 2 (fun i -> chunk (i + 10) 700) in
  write_run cops f1 run1;
  write_run cops f2 run2;
  ignore (ok "commit f2" (cops.Fs_intf.fs_commit root f2));
  Testkit.check_string "f1 byte-exact" (String.concat "" run1) (server_bytes backing f1);
  Testkit.check_string "f2 byte-exact, no stale tail" (String.concat "" run2) (server_bytes backing f2);
  Alcotest.(check (list (pair int int))) "one WRITE per run" [ (0, 1400); (0, 3000) ] !writes;
  (* A run that reaches the 64 KB threshold flushes and carries on. *)
  writes := [];
  let f3, _ = ok "create f3" (cops.Fs_intf.fs_create root ~dir "f3" ~mode:0o644) in
  let run3 = List.init 10 (fun i -> chunk i 8192) in
  write_run cops f3 run3;
  ignore (ok "commit f3" (cops.Fs_intf.fs_commit root f3));
  Testkit.check_string "f3 byte-exact" (String.concat "" run3) (server_bytes backing f3);
  Alcotest.(check (list (pair int int))) "flush at 64 KB, then the rest" [ (65536, 16384); (0, 65536) ] !writes

(* Allocation guard: a buffered 1 KB write costs about 0.6 KB once the
   gather buffer has grown (bound 4x that), not the 128 KB buffer each
   run used to allocate. *)
let test_cachefs_write_alloc () =
  let _, cops, _ = make_gathering () in
  let f, _ = ok "create" (cops.Fs_intf.fs_create root ~dir:cops.Fs_intf.fs_root "f" ~mode:0o644) in
  let data = chunk 0 1024 in
  ignore (ok "warm-up write" (cops.Fs_intf.fs_write root f ~off:0 ~stable:false data));
  ignore (ok "warm-up commit" (cops.Fs_intf.fs_commit root f));
  Testkit.check_alloc_under "1 KB write-behind write" ~bound:2_560 (fun () ->
      ignore (cops.Fs_intf.fs_write root f ~off:1024 ~stable:false data))

let cache_read_equivalence =
  (* Property: reads through the cache agree with direct reads for
     arbitrary offsets and sizes, across interleaved writes. *)
  QCheck.Test.make ~count:100 ~name:"cachefs reads agree with backing store"
    QCheck.(
      pair
        (list_of_size (QCheck.Gen.int_range 1 12)
           (pair (int_range 0 30000) (string_gen_of_size (QCheck.Gen.int_range 1 500) QCheck.Gen.char)))
        (list_of_size (QCheck.Gen.int_range 1 12) (pair (int_range 0 32000) (int_range 0 9000))))
    (fun (writes, reads) ->
      let clock = Simclock.create () in
      let fs = Memfs.create ~now:(now_fn clock) () in
      let disk = Diskmodel.create clock in
      let backing = Memfs_ops.make ~fs ~disk in
      let cache = Cachefs.create ~clock ~policy:Cachefs.sfs_policy backing in
      let cops = Cachefs.ops cache in
      let f, _ =
        match cops.Fs_intf.fs_create root ~dir:cops.Fs_intf.fs_root "blob" ~mode:0o644 with
        | Ok v -> v
        | Error _ -> QCheck.assume_fail ()
      in
      List.iter
        (fun (off, data) -> ignore (cops.Fs_intf.fs_write root f ~off ~stable:false data))
        writes;
      List.for_all
        (fun (off, count) ->
          let via_cache = cops.Fs_intf.fs_read root f ~off ~count in
          let direct = backing.Fs_intf.fs_read root f ~off ~count in
          match (via_cache, direct) with
          | Ok (a, ea, _), Ok (b, eb, _) -> a = b && ea = eb
          | Error _, Error _ -> true
          | _ -> false)
        reads)

(* Property: two users sharing one cache see what the uncached backing
   store says.  Root makes directories and files and changes modes
   through the cache, with clock advances of 0-4 s between steps; root
   or alice looks names up and reads files.  Every lookup and read
   status, and the bytes of every read, must equal the backing store's.
   A step is (kind, a, b, c), read against the handles made so far. *)
let cache_two_users (what, policy) =
  let names = [| "a"; "b"; "c" |] in
  let modes = [| 0o755; 0o700; 0o711; 0o644; 0o600; 0o000; 0o705; 0o750 |] in
  QCheck.Test.make ~count:400 ~name:("cachefs two users agree with backing store, " ^ what)
    QCheck.(list_of_size (Gen.int_range 1 60) (quad (int_bound 7) small_nat small_nat small_nat))
    (fun steps ->
      let clock = Simclock.create () in
      let fs = Memfs.create ~now:(now_fn clock) () in
      let backing = Memfs_ops.make ~fs ~disk:(Diskmodel.create clock) in
      let cops = Cachefs.ops (Cachefs.create ~clock ~policy backing) in
      let dirs = ref [| backing.Fs_intf.fs_root |] and files = ref [||] in
      let pick arr i = arr.(i mod Array.length arr) in
      let user a = if a mod 2 = 0 then root else alice in
      let add arr = function Ok (h, _) -> arr := Array.append !arr [| h |] | Error _ -> () in
      let mode i = pick modes i and name i = pick names i in
      List.for_all
        (fun (kind, a, b, c) ->
          match kind with
          | 0 ->
              add dirs (cops.Fs_intf.fs_mkdir root ~dir:(pick !dirs a) (name b) ~mode:(mode c));
              true
          | 1 ->
              let made = cops.Fs_intf.fs_create root ~dir:(pick !dirs a) (name b) ~mode:(mode c) in
              Result.iter
                (fun (h, _) ->
                  ignore (cops.Fs_intf.fs_write root h ~off:0 ~stable:false (String.make (c + 1) 'x')))
                made;
              add files made;
              true
          | 2 ->
              let h = pick (Array.append !dirs !files) a in
              ignore (cops.Fs_intf.fs_setattr root h { sattr_empty with set_mode = Some (mode b) });
              true
          | 3 ->
              Simclock.advance clock (float_of_int (c mod 5) *. 1_000_000.0);
              true
          | 4 | 5 ->
              let lookup (o : Fs_intf.ops) =
                Result.map fst (o.Fs_intf.fs_lookup (user a) ~dir:(pick !dirs b) (name c))
              in
              lookup cops = lookup backing
          | _ -> (
              Array.length !files = 0
              ||
              let read (o : Fs_intf.ops) = o.Fs_intf.fs_read (user a) (pick !files b) ~off:0 ~count:100 in
              match (read cops, read backing) with
              | Ok (x, ex, _), Ok (y, ey, _) -> x = y && ex = ey
              | Error x, Error y -> x = y
              | _ -> false))
        steps)

let suite =
  ( "nfs",
    [
      Alcotest.test_case "memfs create/read/write" `Quick test_memfs_create_read_write;
      Alcotest.test_case "memfs lookup and dirs" `Quick test_memfs_lookup_and_dirs;
      Alcotest.test_case "memfs permissions" `Quick test_memfs_permissions;
      Alcotest.test_case "memfs remove/rename" `Quick test_memfs_remove_rename;
      Alcotest.test_case "memfs links" `Quick test_memfs_links_and_symlinks;
      Alcotest.test_case "memfs truncate" `Quick test_memfs_truncate;
      Alcotest.test_case "memfs hole after truncation" `Quick test_memfs_truncate_hole;
      Alcotest.test_case "memfs block store allocation" `Quick test_memfs_block_alloc;
      Alcotest.test_case "memfs bad names" `Quick test_memfs_bad_names;
      Alcotest.test_case "diskmodel caching" `Quick test_diskmodel_caching;
      Alcotest.test_case "diskmodel writes" `Quick test_diskmodel_writes;
      Alcotest.test_case "nfs end to end" `Quick test_nfs_end_to_end;
      Alcotest.test_case "nfs credentials" `Quick test_nfs_credentials_cross_wire;
      Alcotest.test_case "nfs bad handles" `Quick test_nfs_bad_handle;
      Alcotest.test_case "nfs garbage resilience" `Quick test_nfs_garbage_resilience;
      Alcotest.test_case "nfs mount xids distinct" `Quick test_nfs_mount_xids_distinct;
      Alcotest.test_case "nfs failed mount releases its conn" `Quick test_nfs_failed_mount_releases_conn;
      Alcotest.test_case "drc fifo" `Quick test_drc_fifo;
      Alcotest.test_case "nfs service drc" `Quick test_nfs_service_drc;
      Alcotest.test_case "nfs service read allocation" `Quick test_nfs_service_read_alloc;
      Alcotest.test_case "cachefs attributes" `Quick test_cachefs_attr_cache;
      Alcotest.test_case "cachefs data" `Quick test_cachefs_data_cache;
      Alcotest.test_case "cachefs lease invalidation" `Quick test_cachefs_lease_invalidation;
      Alcotest.test_case "cachefs hit permissions" `Quick test_cachefs_hit_permissions;
      Alcotest.test_case "directory search permission" `Quick test_dir_search_permission;
      Alcotest.test_case "cachefs readdir evidence" `Quick test_cachefs_readdir_evidence;
      Alcotest.test_case "cachefs negative lookups" `Quick test_cachefs_negative_lookup;
      Alcotest.test_case "cachefs gather runs" `Quick test_cachefs_gather_runs;
      Alcotest.test_case "cachefs write-behind allocation" `Quick test_cachefs_write_alloc;
    ]
    @ Testkit.to_alcotest
        [
          cache_read_equivalence;
          cache_two_users ("nfs", Cachefs.nfs_policy);
          cache_two_users ("sfs", Cachefs.sfs_policy);
        ] )
