(* Cross-module integration scenarios: multiple machines, multiple
   users, combined key-management mechanisms, failure injection. *)

open Sfs_core
module Simos = Sfs_os.Simos
module Simclock = Sfs_net.Simclock
module Simnet = Sfs_net.Simnet
module Memfs = Sfs_nfs.Memfs
module Memfs_ops = Sfs_nfs.Memfs_ops
module Diskmodel = Sfs_nfs.Diskmodel
module Nfs_types = Sfs_nfs.Nfs_types
module Fs_intf = Sfs_nfs.Fs_intf
module Cachefs = Sfs_nfs.Cachefs
module Rabin = Sfs_crypto.Rabin
module Prng = Sfs_crypto.Prng
module Obs = Sfs_obs.Obs

let rng = Prng.create [ "integration" ]

type machine = { vfs : Vfs.t; sfscd : Client.t }

type site = {
  clock : Simclock.t;
  net : Simnet.t;
  os : Simos.t;
  mutable servers : (string * Server.t * Authserv.t * Memfs.t) list;
}

let make_site () =
  let clock = Simclock.create () in
  let net = Simnet.create clock in
  { clock; net; os = Simos.create (); servers = [] }

let add_server ?obs (s : site) (location : string) : Server.t * Authserv.t * Memfs.t =
  let host = Simnet.add_host s.net location in
  let now () = Nfs_types.time_of_us (Simclock.now_us s.clock) in
  let fs = Memfs.create ~now () in
  let root_cred = Simos.cred_of_user Simos.root_user in
  (match Memfs.mkdir fs root_cred ~dir:Memfs.root_id "share" ~mode:0o777 with
  | Ok _ -> ()
  | Error _ -> assert false);
  let key = Rabin.generate ~bits:512 rng in
  let authserv = Authserv.create rng in
  let server =
    Server.create ?obs s.net ~host ~location ~key ~rng
      ~backend:(Memfs_ops.make ~fs ~disk:(Diskmodel.create s.clock)) ~authserv ()
  in
  s.servers <- (location, server, authserv, fs) :: s.servers;
  (server, authserv, fs)

(* A client machine on host [hostname], which already exists. *)
let machine_on (s : site) (hostname : string) : machine =
  let now () = Nfs_types.time_of_us (Simclock.now_us s.clock) in
  let fs = Memfs.create ~now () in
  (match
     Memfs.setattr fs (Simos.cred_of_user Simos.root_user) Memfs.root_id
       { Nfs_types.sattr_empty with Nfs_types.set_mode = Some 0o777 }
   with
  | Ok _ -> ()
  | Error _ -> assert false);
  let sfscd = Client.create s.net ~from_host:hostname ~rng () in
  let vfs =
    Vfs.make ~sfscd ~clock:s.clock ~root_fs:(Memfs_ops.make ~fs ~disk:(Diskmodel.create s.clock)) ()
  in
  { vfs; sfscd }

let add_machine (s : site) (hostname : string) : machine =
  ignore (Simnet.add_host s.net hostname);
  machine_on s hostname

let enroll (authserv : Authserv.t) (user : Simos.user) (key : Rabin.priv) =
  Authserv.add_user authserv ~user:user.Simos.name ~cred:(Simos.cred_of_user user);
  match Authserv.register_pubkey authserv ~user:user.Simos.name key.Rabin.pub with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let with_agent (m : machine) (user : Simos.user) (key : Rabin.priv) : Agent.t =
  let a = Agent.create user in
  Agent.add_key a key;
  Vfs.set_agent m.vfs ~uid:user.Simos.uid a;
  a

let vok msg = function Ok v -> v | Error e -> Alcotest.fail (msg ^ ": " ^ Vfs.verror_to_string e)

(* --- Lease invalidation across two client machines --- *)

let test_cross_client_invalidation () =
  let s = make_site () in
  let obs = Obs.create ~now_us:(fun () -> Simclock.now_us s.clock) () in
  let server, authserv, _ = add_server ~obs s "files.example.com" in
  let alice = Simos.add_user s.os "alice" in
  let akey = Rabin.generate ~bits:512 rng in
  enroll authserv alice akey;
  let m1 = add_machine s "desk1.example.com" in
  let m2 = add_machine s "desk2.example.com" in
  ignore (with_agent m1 alice akey);
  ignore (with_agent m2 alice akey);
  let cred = Simos.cred_of_user alice in
  let base = Pathname.to_string (Server.self_path server) in
  let file = base ^ "/share/shared.txt" in
  vok "m1 writes v1" (Vfs.write_file m1.vfs cred file "v1");
  (* m2 reads and caches under a 60 s lease. *)
  Testkit.check_string "m2 sees v1" "v1" (vok "m2 read" (Vfs.read_file m2.vfs cred file));
  (* m1 updates the file. *)
  vok "m1 writes v2" (Vfs.write_file m1.vfs cred file "v2");
  Testkit.check_int "server issued a callback" 1 (Obs.counter obs "lease.invalidations");
  (* m2's next RPC piggybacks the invalidation (consistency "does not
     need to be perfect, just better than NFS 3"): any uncached
     operation drains the queue, after which the read refetches. *)
  ignore (Vfs.mkdir m2.vfs cred (base ^ "/share/poke"));
  Testkit.check_string "m2 sees v2 within the lease window" "v2"
    (vok "m2 reread" (Vfs.read_file m2.vfs cred file))

(* --- Shared cache between mutually distrustful users (section 5.1) --- *)

let test_shared_cache_two_users () =
  let s = make_site () in
  let obs = Obs.create ~now_us:(fun () -> Simclock.now_us s.clock) () in
  let server, authserv, _ = add_server ~obs s "files.example.com" in
  let alice = Simos.add_user s.os "alice" in
  let bob = Simos.add_user s.os "bob" in
  let akey = Rabin.generate ~bits:512 rng in
  let bkey = Rabin.generate ~bits:512 rng in
  enroll authserv alice akey;
  enroll authserv bob bkey;
  let m = add_machine s "shared.example.com" in
  ignore (with_agent m alice akey);
  ignore (with_agent m bob bkey);
  let acred = Simos.cred_of_user alice and bcred = Simos.cred_of_user bob in
  let base = Pathname.to_string (Server.self_path server) in
  vok "alice writes public" (Vfs.write_file m.vfs acred (base ^ "/share/public.txt") "for everyone");
  vok "alice writes private" (Vfs.write_file m.vfs acred (base ^ "/share/private.txt") "only alice");
  vok "chmod 600" (Vfs.chmod m.vfs acred (base ^ "/share/private.txt") 0o600);
  (* Both users share one mount and one cache — they asked for the same
     public key, so neither can forge data for the other. *)
  Testkit.check_int "one shared mount" 1 (List.length (Client.mounts m.sfscd));
  (* Bob reads the public file: the data is served from the shared
     cache.  The one server call is bob's LOOKUP of [share] in the mount
     root: alice's lookup made that entry, and the cache never fetched
     the root's attributes, so it holds no evidence bob may search
     there. *)
  let calls_before = Obs.counter obs "nfs.calls" in
  let lookups = Obs.counter obs "nfs.op.lookup" and reads = Obs.counter obs "nfs.op.read" in
  Testkit.check_string "bob reads via shared cache" "for everyone"
    (vok "bob read" (Vfs.read_file m.vfs bcred (base ^ "/share/public.txt")));
  Testkit.check_int "one server call for the read" (calls_before + 1) (Obs.counter obs "nfs.calls");
  Testkit.check_int "it is bob's lookup of share" (lookups + 1) (Obs.counter obs "nfs.op.lookup");
  Testkit.check_int "no extra READ for cached read" reads (Obs.counter obs "nfs.op.read");
  (* But the shared cache still enforces permissions. *)
  (match Vfs.read_file m.vfs bcred (base ^ "/share/private.txt") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "shared cache leaked alice's private file")

(* --- authserv database export/import over SFS (section 2.5.2) --- *)

let test_authserv_db_import_over_sfs () =
  let s = make_site () in
  (* The central server holds the department's user database. *)
  let central, central_auth, central_fs = add_server s "central.example.com" in
  let alice = Simos.add_user s.os "alice" in
  let akey = Rabin.generate ~bits:512 rng in
  enroll central_auth alice akey;
  (* Export the public database as a file on the central server. *)
  let root_cred = Simos.cred_of_user Simos.root_user in
  (match Memfs.create_file central_fs root_cred ~dir:Memfs.root_id "sfs_users.pub" ~mode:0o644 with
  | Ok (id, _) ->
      ignore (Memfs.write central_fs root_cred id ~off:0 (Authserv.export_public_db central_auth))
  | Error e -> Alcotest.fail (Nfs_types.status_to_string e));
  (* A separately-administered file server imports it over SFS — without
     trusting the central machine with any secrets. *)
  let dept, dept_auth, _ = add_server s "dept.example.com" in
  let admin_machine = add_machine s "admin.example.com" in
  let admin_agent = Agent.create Simos.root_user in
  Vfs.set_agent admin_machine.vfs ~uid:0 admin_agent;
  let central_path = Pathname.to_string (Server.self_path central) in
  let db_bytes =
    vok "fetch db over sfs"
      (Vfs.read_file admin_machine.vfs (Simos.cred_of_user Simos.root_user)
         (central_path ^ "/sfs_users.pub"))
  in
  (match Authserv.import_public_db dept_auth ~name:"central" db_bytes with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* Alice can now authenticate to the department server with the same
     key, though she was never registered there directly. *)
  let m = add_machine s "laptop.example.com" in
  ignore (with_agent m alice akey);
  let cred = Simos.cred_of_user alice in
  let dept_path = Pathname.to_string (Server.self_path dept) in
  vok "alice writes on dept server" (Vfs.write_file m.vfs cred (dept_path ^ "/share/hi") "imported!");
  let attr = vok "stat" (Vfs.stat m.vfs cred (dept_path ^ "/share/hi")) in
  Testkit.check_int "authenticated via imported db" alice.Simos.uid attr.Nfs_types.uid;
  (* The export contains no password-equivalent data. *)
  Testkit.check_bool "no srp verifier leaks" true (Authserv.srp_verifier dept_auth ~user:"alice" = None)

(* --- Bootstrapping one mechanism with another (section 2.4) --- *)

let test_mechanism_composition () =
  (* Password authentication reaches a CA; a certification path through
     the CA reaches a third server.  No mechanism alone suffices. *)
  let s = make_site () in
  let ca_server, ca_auth, ca_fs = add_server s "ca.example.com" in
  let target, target_auth, _ = add_server s "target.example.com" in
  let alice = Simos.add_user s.os "alice" in
  let akey = Rabin.generate ~bits:512 rng in
  enroll target_auth alice akey;
  (* The CA lists the target under a human name. *)
  let root_cred = Simos.cred_of_user Simos.root_user in
  ignore
    (Memfs.symlink ca_fs root_cred ~dir:Memfs.root_id "target"
       ~target:(Pathname.to_string (Server.self_path target)));
  (* Alice has a password account on the CA host. *)
  Authserv.add_user ca_auth ~user:"alice" ~cred:(Simos.cred_of_user alice);
  Sfskey.register_local ~cost:2 ca_auth rng ~user:"alice" ~password:"open sesame" ~key:akey;
  (* On a fresh machine, alice bootstraps: password -> CA link -> cert
     path -> target. *)
  let m = add_machine s "cafe.example.com" in
  let agent = Agent.create alice in
  Vfs.set_agent m.vfs ~uid:alice.Simos.uid agent;
  (match
     Sfskey.add s.net rng agent ~from_host:"cafe.example.com" ~location:"ca.example.com"
       ~user:"alice" ~password:"open sesame"
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Sfskey.error_to_string e));
  Keymgmt.install_certification_path agent m.vfs [ "/sfs/ca.example.com" ];
  let cred = Simos.cred_of_user alice in
  vok "reach the target through the chain"
    (Vfs.write_file m.vfs cred "/sfs/target/share/milestone" "composed!");
  ignore (vok "verify on target" (Vfs.stat m.vfs cred
            (Pathname.to_string (Server.self_path target) ^ "/share/milestone")));
  ignore ca_server

(* --- Read-only dialect through the full client --- *)

let test_readonly_end_to_end () =
  let s = make_site () in
  let _, _, fs = add_server s "ro.example.com" in
  let root_cred = Simos.cred_of_user Simos.root_user in
  (match Memfs.lookup fs root_cred ~dir:Memfs.root_id "share" with
  | Ok (share, _) -> (
      match Memfs.create_file fs root_cred ~dir:share "doc.txt" ~mode:0o644 with
      | Ok (id, _) -> ignore (Memfs.write fs root_cred id ~off:0 "published content")
      | Error e -> Alcotest.fail (Nfs_types.status_to_string e))
  | Error e -> Alcotest.fail (Nfs_types.status_to_string e));
  (* The publisher signs a snapshot of the tree with a key of its own
     and pushes it to a mirror that holds only the public key.  The
     mirror answers the connect step for its own pathname; the reader
     checks the served key against that pathname's HostID, then every
     object against the signed root. *)
  let key = Rabin.generate ~bits:512 rng in
  ignore (Simnet.add_host s.net "publisher.example.com");
  let publisher =
    Replica.publisher ~net:s.net ~host:"publisher.example.com" ~key ~clock:s.clock fs
  in
  let mirror =
    Replica.mirror ~clock:s.clock ~location:"replica.example.com" ~pubkey:key.Rabin.pub ()
  in
  ignore (Replica.attach s.net mirror);
  ignore (Replica.publish publisher);
  Testkit.check_int "pushed to the mirror" 0
    (Replica.fan_out publisher [ Replica.target ~addr:"replica.example.com" ]);
  let m = add_machine s "reader.example.com" in
  (match Client.mount_readonly m.sfscd (Replica.path mirror) with
  | Error e -> Alcotest.fail (Client.mount_error_to_string e)
  | Ok ops ->
      let cred = Simos.anonymous_cred in
      let share, _ =
        match ops.Fs_intf.fs_lookup cred ~dir:ops.Fs_intf.fs_root "share" with
        | Ok v -> v
        | Error e -> Alcotest.fail (Nfs_types.status_to_string e)
      in
      let doc, _ =
        match ops.Fs_intf.fs_lookup cred ~dir:share "doc.txt" with
        | Ok v -> v
        | Error e -> Alcotest.fail (Nfs_types.status_to_string e)
      in
      (match ops.Fs_intf.fs_read cred doc ~off:0 ~count:100 with
      | Ok (data, _, _) -> Testkit.check_string "verified content" "published content" data
      | Error e -> Alcotest.fail (Nfs_types.status_to_string e));
      (* Writes are impossible by construction. *)
      (match ops.Fs_intf.fs_write cred doc ~off:0 ~stable:true "vandalism" with
      | Error Nfs_types.NFS3ERR_ROFS -> ()
      | Error e -> Alcotest.fail (Nfs_types.status_to_string e)
      | Ok _ -> Alcotest.fail "wrote to a read-only snapshot"))

(* --- Forwarding pointer end-to-end --- *)

let test_forwarding_end_to_end () =
  let s = make_site () in
  let old_server, old_auth, _ = add_server s "old.example.com" in
  let new_server, new_auth, _ = add_server s "new.example.com" in
  ignore (old_auth, new_auth);
  let fwd = Server.forwarding_pointer old_server ~new_path:(Server.self_path new_server) in
  (* The old root becomes a forwarding symlink (the benign transition
     of section 2.4); for the compromised-key case, revocation wins. *)
  (match Revocation.body_of fwd with
  | Revocation.Forward p ->
      Testkit.check_bool "points to the new server" true
        (Pathname.equal p (Server.self_path new_server))
  | Revocation.Revoke -> Alcotest.fail "expected a forwarding body");
  Testkit.check_bool "self-authenticating" true (Revocation.valid fwd);
  (* A client verifying the pointer follows it to the new pathname. *)
  let m = add_machine s "mover.example.com" in
  (match Revocation.check_for (Server.self_path old_server) (Revocation.to_string fwd) with
  | Some (Revocation.Forward p) -> (
      match Client.mount m.sfscd p with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Client.mount_error_to_string e))
  | _ -> Alcotest.fail "pointer did not verify")

(* --- Failure injection: server loss and recovery --- *)

let test_server_failure_and_recovery () =
  let s = make_site () in
  let server, authserv, _ = add_server s "flaky.example.com" in
  let alice = Simos.add_user s.os "alice" in
  let akey = Rabin.generate ~bits:512 rng in
  enroll authserv alice akey;
  let m = add_machine s "client.example.com" in
  ignore (with_agent m alice akey);
  let cred = Simos.cred_of_user alice in
  let base = Pathname.to_string (Server.self_path server) in
  vok "works initially" (Vfs.write_file m.vfs cred (base ^ "/share/a") "1");
  (* The server machine goes down (a crash window): dials time out. *)
  let down = ref true in
  Simnet.set_injector s.net
    (Some
       {
         Simnet.inj_message = (fun ~dir:_ ~src:_ ~dst:_ ~size:_ -> Simnet.Fault_pass);
         inj_host_down = (fun host -> !down && host = "flaky.example.com");
         inj_host_epoch = (fun _ -> 0);
       });
  (match Client.mount m.sfscd (Server.self_path server) with
  | Ok mount ->
      (* Existing mount: its connection is still the old closure; kill
         it to model the TCP reset and observe clean failure. *)
      Client.unmount m.sfscd mount
  | Error _ -> ());
  (match Vfs.read_file m.vfs cred (base ^ "/share/a") with
  | Error e ->
      Testkit.check_bool "clean unreachable error" true
        (match e with Vfs.Mount_failed (Client.Host_unreachable _) -> true | _ -> false)
  | Ok _ -> Alcotest.fail "read from a vanished server");
  (* The host returns (same key, same data): the same pathname mounts
     again — "attackers can do no worse than delay". *)
  down := false;
  (match Client.mount m.sfscd (Server.self_path server) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("remount after recovery: " ^ Client.mount_error_to_string e));
  (* The remount numbers its calls after the first mount's, so none is
     answered from the server's duplicate request cache with a reply
     made before the file existed. *)
  Testkit.check_string "reads the data written before the crash" "1"
    (vok "read after recovery" (Vfs.read_file m.vfs cred (base ^ "/share/a")))

(* --- The duplicate request cache answers only the caller it ran for --- *)

(* A server whose share holds alice's private file: share/alice is
   0700 and share/alice/secret 0600, written from a machine of its
   own.  Alice and bob are enrolled with agents. *)
let private_file_site () =
  let s = make_site () in
  let server, authserv, _ = add_server s "files.example.com" in
  let alice = Simos.add_user s.os "alice" and bob = Simos.add_user s.os "bob" in
  let akey = Rabin.generate ~bits:512 rng and bkey = Rabin.generate ~bits:512 rng in
  enroll authserv alice akey;
  enroll authserv bob bkey;
  let setup = add_machine s "setup.example.com" in
  ignore (with_agent setup alice akey);
  let acred = Simos.cred_of_user alice in
  let base = Pathname.to_string (Server.self_path server) in
  let dir = base ^ "/share/alice" in
  vok "mkdir" (Vfs.mkdir setup.vfs acred dir);
  vok "chmod 700" (Vfs.chmod setup.vfs acred dir 0o700);
  vok "write" (Vfs.write_file setup.vfs acred (dir ^ "/secret") "alice-data");
  vok "chmod 600" (Vfs.chmod setup.vfs acred (dir ^ "/secret") 0o600);
  (s, (alice, akey), (bob, bkey), dir ^ "/secret")

let expect_eacces msg = function
  | Error (Vfs.Errno Nfs_types.NFS3ERR_ACCES) -> ()
  | Error e -> Alcotest.fail (msg ^ ": " ^ Vfs.verror_to_string e)
  | Ok data -> Alcotest.fail (msg ^ ": read " ^ data)

(* Alice reads her file, every mount goes, and bob on the same machine
   reads the same path: his remount must not be answered with alice's
   replies. *)
let test_drc_remount_other_user () =
  let s, (alice, akey), (bob, bkey), secret = private_file_site () in
  let m = add_machine s "client.example.com" in
  ignore (with_agent m alice akey);
  ignore (with_agent m bob bkey);
  Testkit.check_string "alice reads" "alice-data"
    (vok "alice read" (Vfs.read_file m.vfs (Simos.cred_of_user alice) secret));
  List.iter (Client.unmount m.sfscd) (Client.mounts m.sfscd);
  expect_eacces "bob after remount" (Vfs.read_file m.vfs (Simos.cred_of_user bob) secret)

(* Two client programs on one host: the host numbers the calls of
   both, so none of bob's calls meets one of alice's in the server's
   cache, and he gets EACCES, not alice's data. *)
let test_drc_twin_clients () =
  let s, (alice, akey), (bob, bkey), secret = private_file_site () in
  let m1 = add_machine s "twin.example.com" in
  let m2 = machine_on s "twin.example.com" in
  ignore (with_agent m1 alice akey);
  ignore (with_agent m2 bob bkey);
  Testkit.check_string "alice reads" "alice-data"
    (vok "alice read" (Vfs.read_file m1.vfs (Simos.cred_of_user alice) secret));
  expect_eacces "bob on the twin" (Vfs.read_file m2.vfs (Simos.cred_of_user bob) secret)

(* A site with [share/x] and [share/y] written from a machine of its
   own, and two clients on one host, each with alice's agent. *)
let twin_site () =
  let s = make_site () in
  let obs = Obs.create ~now_us:(fun () -> Simclock.now_us s.clock) () in
  let server, authserv, _ = add_server ~obs s "files.example.com" in
  let alice = Simos.add_user s.os "alice" in
  let akey = Rabin.generate ~bits:512 rng in
  enroll authserv alice akey;
  let cred = Simos.cred_of_user alice in
  let base = Pathname.to_string (Server.self_path server) in
  let setup = add_machine s "setup.example.com" in
  ignore (with_agent setup alice akey);
  vok "write x" (Vfs.write_file setup.vfs cred (base ^ "/share/x") "x");
  vok "write y" (Vfs.write_file setup.vfs cred (base ^ "/share/y") "y");
  let m1 = add_machine s "twin.example.com" in
  let m2 = machine_on s "twin.example.com" in
  ignore (with_agent m1 alice akey);
  ignore (with_agent m2 alice akey);
  (obs, cred, base, setup, m1, m2)

(* One user on two such clients makes the same calls in the same
   order: no reply of one is replayed to the other. *)
let test_drc_twin_lookups () =
  let obs, cred, base, _, m1, m2 = twin_site () in
  let hits = Obs.counter obs "recover.retransmit_hit" in
  Testkit.check_string "x" "x" (vok "read x" (Vfs.read_file m1.vfs cred (base ^ "/share/x")));
  Testkit.check_string "y" "y" (vok "read y" (Vfs.read_file m2.vfs cred (base ^ "/share/y")));
  Testkit.check_int "no reply replayed" hits (Obs.counter obs "recover.retransmit_hit")

(* Client 1 reads [share/a] before it exists, another machine creates
   it, and client 2 on the same host, as the same user, reads it: it
   gets the data, not client 1's NFS3ERR_NOENT. *)
let test_drc_twin_stale_read () =
  let _, cred, base, setup, m1, m2 = twin_site () in
  let a = base ^ "/share/a" in
  (match Vfs.read_file m1.vfs cred a with
  | Error (Vfs.Errno Nfs_types.NFS3ERR_NOENT) -> ()
  | Error e -> Alcotest.fail ("client 1: " ^ Vfs.verror_to_string e)
  | Ok data -> Alcotest.fail ("client 1 read " ^ data));
  vok "write a" (Vfs.write_file setup.vfs cred a "a");
  Testkit.check_string "client 2 reads a" "a" (vok "client 2 read" (Vfs.read_file m2.vfs cred a))

let suite =
  ( "integration",
    [
      Alcotest.test_case "cross-client lease invalidation" `Quick test_cross_client_invalidation;
      Alcotest.test_case "shared cache, two users" `Quick test_shared_cache_two_users;
      Alcotest.test_case "authserv db import over SFS" `Quick test_authserv_db_import_over_sfs;
      Alcotest.test_case "mechanism composition" `Quick test_mechanism_composition;
      Alcotest.test_case "read-only via untrusted replica" `Quick test_readonly_end_to_end;
      Alcotest.test_case "forwarding pointer" `Quick test_forwarding_end_to_end;
      Alcotest.test_case "server failure and recovery" `Quick test_server_failure_and_recovery;
      Alcotest.test_case "drc: remount by another user" `Quick test_drc_remount_other_user;
      Alcotest.test_case "drc: twin clients, two users" `Quick test_drc_twin_clients;
      Alcotest.test_case "drc: twin clients, two lookups" `Quick test_drc_twin_lookups;
      Alcotest.test_case "drc: twin clients, stale read" `Quick test_drc_twin_stale_read;
    ] )
