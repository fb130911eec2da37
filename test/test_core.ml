open Sfs_core
module Simos = Sfs_os.Simos
module Simclock = Sfs_net.Simclock
module Simnet = Sfs_net.Simnet
module Memfs = Sfs_nfs.Memfs
module Nfs_types = Sfs_nfs.Nfs_types
module Fs_intf = Sfs_nfs.Fs_intf
module Memfs_ops = Sfs_nfs.Memfs_ops
module Diskmodel = Sfs_nfs.Diskmodel
module Rabin = Sfs_crypto.Rabin
module Prng = Sfs_crypto.Prng
module Hostid = Sfs_proto.Hostid

let rng = Prng.create [ "core-test" ]
let key_a = lazy (Rabin.generate ~bits:512 rng)
let key_b = lazy (Rabin.generate ~bits:512 rng)

(* --- Pathnames --- *)

let test_pathname_roundtrip () =
  let sk = Lazy.force key_a in
  let p = Pathname.of_server ~location:"sfs.lcs.mit.edu" ~pubkey:sk.Rabin.pub in
  let s = Pathname.to_string p in
  Testkit.check_bool "prefix" true (String.length s > 5 && String.sub s 0 5 = "/sfs/");
  (match Pathname.of_string s with
  | Some (p', rest) ->
      Testkit.check_bool "roundtrip" true (Pathname.equal p p');
      Alcotest.(check (list string)) "no rest" [] rest
  | None -> Alcotest.fail "parse failed");
  (match Pathname.of_string (s ^ "/a/b/c") with
  | Some (p', rest) ->
      Testkit.check_bool "with rest" true (Pathname.equal p p');
      Alcotest.(check (list string)) "components" [ "a"; "b"; "c" ] rest
  | None -> Alcotest.fail "parse with rest failed");
  Testkit.check_bool "bad name" true (Pathname.of_name "nocolonhere" = None);
  Testkit.check_bool "bad base32" true (Pathname.of_name "host:l1o0l1o0" = None);
  Testkit.check_bool "not sfs" true (Pathname.of_string "/usr/local" = None);
  (* The name encodes exactly 32 base-32 characters of HostID. *)
  let name = Pathname.to_name p in
  (match String.rindex_opt name ':' with
  | Some i -> Testkit.check_int "b32 width" 32 (String.length name - i - 1)
  | None -> Alcotest.fail "no colon")

(* --- File handle crypto --- *)

let test_fhcrypt () =
  let f = Fhcrypt.of_prng (Prng.create [ "fhcrypt-k" ]) in
  List.iter
    (fun inner ->
      match Fhcrypt.decrypt f (Fhcrypt.encrypt f inner) with
      | Some got -> Testkit.check_string "roundtrip" inner got
      | None -> Alcotest.fail "decrypt failed")
    [ "1"; "12345"; String.make 40 'x'; "" ];
  (* Tampering any byte must be rejected, not produce a wrong handle. *)
  let wire = Fhcrypt.encrypt f "inode-42" in
  for i = 0 to String.length wire - 1 do
    let tampered = Bytes.of_string wire in
    Bytes.set tampered i (Char.chr (Char.code (Bytes.get tampered i) lxor 1));
    match Fhcrypt.decrypt f (Bytes.to_string tampered) with
    | Some got -> Testkit.check_bool "forged handle" false (got <> "inode-42")
    | None -> ()
  done;
  (* Guessing: a plain inode number is not a valid wire handle. *)
  Testkit.check_bool "guess rejected" true (Fhcrypt.decrypt f "42" = None);
  (* Different keys produce incompatible handles. *)
  let f2 = Fhcrypt.of_prng (Prng.create [ "fhcrypt-j" ]) in
  Testkit.check_bool "cross-key" true (Fhcrypt.decrypt f2 wire = None)

(* --- Revocation certificates --- *)

let test_revocation () =
  let sk = Lazy.force key_a in
  let cert = Revocation.make ~key:sk ~location:"old.example.com" Revocation.Revoke in
  Testkit.check_bool "valid" true (Revocation.valid cert);
  let path = Pathname.of_server ~location:"old.example.com" ~pubkey:sk.Rabin.pub in
  Testkit.check_bool "applies" true (Revocation.applies_to cert path);
  (* Another path (same key, other location) is unaffected. *)
  let other = Pathname.of_server ~location:"new.example.com" ~pubkey:sk.Rabin.pub in
  Testkit.check_bool "scoped" false (Revocation.applies_to cert other);
  (* Serialization roundtrip, self-authenticating check. *)
  (match Revocation.check_for path (Revocation.to_string cert) with
  | Some Revocation.Revoke -> ()
  | _ -> Alcotest.fail "roundtrip check");
  (* A certificate signed by the wrong key is invalid. *)
  let wrong = Lazy.force key_b in
  let forged = Revocation.make ~key:wrong ~location:"old.example.com" Revocation.Revoke in
  Testkit.check_bool "forged cert applies to its own key only" false
    (Revocation.applies_to forged path);
  (* Forwarding pointers parse and carry the new path. *)
  let fwd = Revocation.make ~key:sk ~location:"old.example.com" (Revocation.Forward other) in
  match Revocation.check_for path (Revocation.to_string fwd) with
  | Some (Revocation.Forward p) -> Testkit.check_bool "forward target" true (Pathname.equal p other)
  | _ -> Alcotest.fail "forward roundtrip"

(* --- A complete world --- *)

type world = {
  clock : Simclock.t;
  net : Simnet.t;
  host : Simnet.host; (* the server's *)
  server_fs : Memfs.t;
  server : Server.t;
  authserv : Authserv.t;
  client : Client.t;
  vfs : Vfs.t;
  alice : Simos.user;
  alice_agent : Agent.t;
  alice_key : Rabin.priv;
  os : Simos.t;
}

let make_world ?(register_alice = true) ?obs () =
  let clock = Simclock.create () in
  let net = Simnet.create clock in
  let host = Simnet.add_host net "server.example.com" in
  let _client_host = Simnet.add_host net "client.example.com" in
  let now () = Nfs_types.time_of_us (Simclock.now_us clock) in
  let os = Simos.create () in
  let alice = Simos.add_user os "alice" in
  let server_fs = Memfs.create ~now () in
  let disk = Diskmodel.create clock in
  let backend = Memfs_ops.make ~fs:server_fs ~disk in
  let root_cred = Simos.cred_of_user Simos.root_user in
  (match Memfs.mkdir server_fs root_cred ~dir:Memfs.root_id "home" ~mode:0o777 with
  | Ok _ -> ()
  | Error _ -> assert false);
  let server_key = Lazy.force key_a in
  let authserv = Authserv.create ?obs rng in
  Authserv.add_user authserv ~user:"alice" ~cred:(Simos.cred_of_user alice);
  let alice_key = Rabin.generate ~bits:512 rng in
  if register_alice then
    (match Authserv.register_pubkey authserv ~user:"alice" alice_key.Rabin.pub with
    | Ok () -> ()
    | Error e -> Alcotest.fail e);
  let server =
    Server.create net ~host ~location:"server.example.com" ~key:server_key ~rng ~backend ~authserv ()
  in
  let client = Client.create net ~from_host:"client.example.com" ~rng () in
  let client_fs = Memfs.create ~now () in
  (* A permissive client root so unprivileged users can make links. *)
  (match Memfs.setattr client_fs root_cred Memfs.root_id
           { Nfs_types.sattr_empty with Nfs_types.set_mode = Some 0o777 } with
  | Ok _ -> ()
  | Error _ -> assert false);
  let client_disk = Diskmodel.create clock in
  let vfs = Vfs.make ~sfscd:client ~clock ~root_fs:(Memfs_ops.make ~fs:client_fs ~disk:client_disk) () in
  let alice_agent = Agent.create ~now_us:(fun () -> Simclock.now_us clock) alice in
  Agent.add_key alice_agent alice_key;
  Vfs.set_agent vfs ~uid:alice.Simos.uid alice_agent;
  { clock; net; host; server_fs; server; authserv; client; vfs; alice; alice_agent; alice_key; os }

let vok msg = function Ok v -> v | Error e -> Alcotest.fail (msg ^ ": " ^ Vfs.verror_to_string e)
let vexpect msg = function
  | Error _ -> ()
  | Ok _ -> Alcotest.fail (msg ^ ": unexpectedly succeeded")

let test_end_to_end_rw () =
  let w = make_world () in
  let cred = Simos.cred_of_user w.alice in
  let base = Pathname.to_string (Server.self_path w.server) in
  (* Write and read back through the full stack: VFS -> automount ->
     keyneg -> channel -> sfssd -> NFS backend. *)
  vok "mkdir" (Vfs.mkdir w.vfs cred (base ^ "/home/alice"));
  vok "write" (Vfs.write_file w.vfs cred (base ^ "/home/alice/notes.txt") "self-certifying!");
  Testkit.check_string "read back" "self-certifying!"
    (vok "read" (Vfs.read_file w.vfs cred (base ^ "/home/alice/notes.txt")));
  (* Attributes and listing. *)
  let attr = vok "stat" (Vfs.stat w.vfs cred (base ^ "/home/alice/notes.txt")) in
  Testkit.check_int "size" 16 attr.Nfs_types.size;
  Testkit.check_bool "lease stamped" true (attr.Nfs_types.lease > 0);
  Alcotest.(check (list string)) "ls" [ "alice" ] (vok "readdir" (Vfs.readdir w.vfs cred (base ^ "/home")));
  (* The user is authenticated: files are owned by alice's uid. *)
  Testkit.check_int "owner" w.alice.Simos.uid attr.Nfs_types.uid

let test_wrong_hostid_rejected () =
  let w = make_world () in
  let cred = Simos.cred_of_user w.alice in
  (* A pathname naming the same location with a different HostID (e.g.
     distributed by an attacker) must not resolve. *)
  let wrong = Lazy.force key_b in
  let bad = Pathname.of_server ~location:"server.example.com" ~pubkey:wrong.Rabin.pub in
  vexpect "wrong hostid" (Vfs.read_file w.vfs cred (Pathname.to_string bad ^ "/home"));
  (* A pathname for a host that does not exist fails cleanly. *)
  let sk = Lazy.force key_a in
  let ghost = Pathname.of_server ~location:"ghost.example.com" ~pubkey:sk.Rabin.pub in
  vexpect "no such host" (Vfs.readdir w.vfs cred (Pathname.to_string ghost))

let test_anonymous_vs_authenticated () =
  let w = make_world () in
  let bob = Simos.add_user w.os "bob" in
  let bob_cred = Simos.cred_of_user bob in
  (* Bob has no agent and no account: anonymous access only. *)
  let base = Pathname.to_string (Server.self_path w.server) in
  let alice_cred = Simos.cred_of_user w.alice in
  vok "alice mkdir" (Vfs.mkdir w.vfs alice_cred ~mode:0o700 (base ^ "/home/private"));
  vok "alice write" (Vfs.write_file w.vfs alice_cred (base ^ "/home/private/secret") "k");
  vexpect "bob denied" (Vfs.read_file w.vfs bob_cred (base ^ "/home/private/secret"));
  (* Unlike plain NFS, credentials cannot be forged from another
     machine: a client whose local user has alice's numeric uid — but
     not her key — is mapped to anonymous by the server. *)
  let mallory_client = Client.create w.net ~from_host:"evil.example.com" ~rng () in
  let now () = Nfs_types.time_of_us (Simclock.now_us w.clock) in
  let mallory_fs = Memfs.create ~now () in
  let mallory_disk = Diskmodel.create w.clock in
  let vfs2 =
    Vfs.make ~sfscd:mallory_client ~clock:w.clock
      ~root_fs:(Memfs_ops.make ~fs:mallory_fs ~disk:mallory_disk) ()
  in
  let mallory = { Simos.name = "mallory"; uid = w.alice.Simos.uid; gid = w.alice.Simos.gid; groups = [] } in
  let mallory_agent = Agent.create mallory in
  Agent.add_key mallory_agent (Rabin.generate ~bits:512 rng) (* not alice's key *);
  Vfs.set_agent vfs2 ~uid:mallory.Simos.uid mallory_agent;
  vexpect "forged uid useless over SFS"
    (Vfs.read_file vfs2 (Simos.cred_of_user mallory) (base ^ "/home/private/secret"))

let test_sfs_dir_per_user_view () =
  let w = make_world () in
  let cred = Simos.cred_of_user w.alice in
  let bob = Simos.add_user w.os "bob" in
  let bob_agent = Agent.create bob in
  Vfs.set_agent w.vfs ~uid:bob.Simos.uid bob_agent;
  let bob_cred = Simos.cred_of_user bob in
  let base = Pathname.to_string (Server.self_path w.server) in
  ignore (vok "alice visits" (Vfs.readdir w.vfs cred base));
  (* Alice sees her visited entry; bob sees nothing (the filename-
     completion defence of section 2.3). *)
  let name = Pathname.to_name (Server.self_path w.server) in
  Alcotest.(check (list string)) "alice view" [ name ] (vok "alice ls" (Vfs.readdir w.vfs cred "/sfs"));
  Alcotest.(check (list string)) "bob view" [] (vok "bob ls" (Vfs.readdir w.vfs bob_cred "/sfs"))

let test_agent_links_and_secure_links () =
  let w = make_world () in
  let cred = Simos.cred_of_user w.alice in
  let path = Server.self_path w.server in
  let base = Pathname.to_string path in
  (* Agent link: /sfs/work -> self-certifying pathname. *)
  Agent.add_link w.alice_agent ~name:"work" ~target:base;
  vok "via agent link" (Vfs.write_file w.vfs cred "/sfs/work/home/via-link" "hello");
  Testkit.check_string "read via real path" "hello"
    (vok "read" (Vfs.read_file w.vfs cred (base ^ "/home/via-link")));
  (* Secure link: a symlink on the SFS file system pointing to /sfs. *)
  vok "secure link" (Vfs.symlink w.vfs cred ~target:(base ^ "/home") (base ^ "/home/loop"));
  Testkit.check_string "follows secure link" "hello"
    (vok "read2" (Vfs.read_file w.vfs cred (base ^ "/home/loop/via-link")));
  (* Local-disk manual link. *)
  vok "manual" (Keymgmt.manual_link w.vfs cred ~link:"/work" path);
  Testkit.check_string "via manual link" "hello"
    (vok "read3" (Vfs.read_file w.vfs cred "/work/home/via-link"))

let test_symlink_loop_detected () =
  let w = make_world () in
  let cred = Simos.cred_of_user w.alice in
  vok "a->b" (Vfs.symlink w.vfs cred ~target:"/b" "/a");
  vok "b->a" (Vfs.symlink w.vfs cred ~target:"/a" "/b");
  match Vfs.read_file w.vfs cred "/a" with
  | Error Vfs.Symlink_loop -> ()
  | Error e -> Alcotest.fail (Vfs.verror_to_string e)
  | Ok _ -> Alcotest.fail "loop not detected"

let test_revoked_server_blocks_mount () =
  let w = make_world () in
  let cred = Simos.cred_of_user w.alice in
  let base = Pathname.to_string (Server.self_path w.server) in
  (* Works before revocation (fresh mount each world). *)
  vok "pre-revocation" (Vfs.mkdir w.vfs cred (base ^ "/home/pre"));
  (* The owner revokes; new clients connecting get the certificate. *)
  ignore (Server.revoke w.server);
  let client2 = Client.create w.net ~from_host:"other.example.com" ~rng () in
  (match Client.mount client2 (Server.self_path w.server) with
  | Error (Client.Revoked (Some served)) ->
      Testkit.check_bool "revoke body" true (Revocation.body_of served = Revocation.Revoke)
  | Error e -> Alcotest.fail ("unexpected: " ^ Client.mount_error_to_string e)
  | Ok _ -> Alcotest.fail "mounted a revoked pathname")

let test_agent_revocation_and_blocking () =
  let w = make_world () in
  let cred = Simos.cred_of_user w.alice in
  let path = Server.self_path w.server in
  let base = Pathname.to_string path in
  (* The agent learns a revocation certificate (e.g. from a revocation
     directory): access is denied before any network traffic. *)
  let cert = Revocation.make ~key:(Lazy.force key_a) ~location:"server.example.com" Revocation.Revoke in
  Testkit.check_bool "learned" true (Agent.learn_revocation w.alice_agent cert);
  (match Vfs.read_file w.vfs cred (base ^ "/home/x") with
  | Error Vfs.Revoked_by_agent -> ()
  | Error e -> Alcotest.fail (Vfs.verror_to_string e)
  | Ok _ -> Alcotest.fail "agent revocation ignored");
  (* A tampered certificate is not learned: flip a byte in the signed
     region and reparse. *)
  let genuine = Revocation.make ~key:(Lazy.force key_b) ~location:"elsewhere.com" Revocation.Revoke in
  let bytes = Bytes.of_string (Revocation.to_string genuine) in
  Bytes.set bytes 8 (Char.chr (Char.code (Bytes.get bytes 8) lxor 1));
  (match Revocation.of_string (Bytes.to_string bytes) with
  | Some forged -> Testkit.check_bool "forged rejected" false (Agent.learn_revocation w.alice_agent forged)
  | None -> () (* unparsable is equally rejected *));
  (* HostID blocking is per-user: bob can still access. *)
  let w2 = make_world () in
  let bob = Simos.add_user w2.os "bob" in
  let bob_agent = Agent.create bob in
  Vfs.set_agent w2.vfs ~uid:bob.Simos.uid bob_agent;
  Agent.block_hostid bob_agent (Pathname.hostid path);
  (match Vfs.readdir w2.vfs (Simos.cred_of_user bob) (Pathname.to_string (Server.self_path w2.server)) with
  | Error Vfs.Blocked_by_agent -> ()
  | Error e -> Alcotest.fail (Vfs.verror_to_string e)
  | Ok _ -> Alcotest.fail "block ignored");
  ignore (vok "alice unaffected" (Vfs.readdir w2.vfs (Simos.cred_of_user w2.alice)
                                    (Pathname.to_string (Server.self_path w2.server))))

let test_sfskey_password_flow () =
  let w = make_world ~register_alice:false () in
  (* Server side: alice registers with her password (as if logged in). *)
  Sfskey.register_local ~cost:2 w.authserv rng ~user:"alice" ~password:"correct horse"
    ~key:w.alice_key;
  (* Travelling user: fresh agent knowing only location + password. *)
  let travel_agent = Agent.create w.alice in
  (match
     Sfskey.add w.net rng travel_agent ~from_host:"laptop.example.com" ~location:"server.example.com"
       ~user:"alice" ~password:"correct horse"
   with
  | Error e -> Alcotest.fail (Sfskey.error_to_string e)
  | Ok path ->
      Testkit.check_bool "got the right path" true (Pathname.equal path (Server.self_path w.server));
      (* The agent now holds the private key fetched in encrypted form. *)
      Testkit.check_int "key installed" 1 (List.length (Agent.keys travel_agent));
      (* And the /sfs/server.example.com link works. *)
      Alcotest.(check (list string)) "agent link" [ "server.example.com" ]
        (List.map fst (Agent.links travel_agent)));
  (* Wrong password: no information, a logged failure. *)
  (match
     Sfskey.add w.net rng (Agent.create w.alice) ~from_host:"laptop.example.com"
       ~location:"server.example.com" ~user:"alice" ~password:"wrong"
   with
  | Error (Sfskey.Auth_failed _) -> ()
  | Error e -> Alcotest.fail (Sfskey.error_to_string e)
  | Ok _ -> Alcotest.fail "wrong password accepted");
  Testkit.check_bool "failure logged" true (List.length (Authserv.failed_attempts w.authserv) > 0)

let test_sfskey_agent_integration () =
  (* The full travelling-user scenario: password -> path + key -> agent
     -> transparent authenticated access. *)
  let w = make_world ~register_alice:false () in
  Sfskey.register_local ~cost:2 w.authserv rng ~user:"alice" ~password:"pw" ~key:w.alice_key;
  let agent = Agent.create w.alice in
  (match
     Sfskey.add w.net rng agent ~from_host:"client.example.com" ~location:"server.example.com"
       ~user:"alice" ~password:"pw"
   with
  | Error e -> Alcotest.fail (Sfskey.error_to_string e)
  | Ok _ -> ());
  Vfs.set_agent w.vfs ~uid:w.alice.Simos.uid agent;
  let cred = Simos.cred_of_user w.alice in
  (* Access through the human-readable agent link; authentication rides
     the key sfskey downloaded. *)
  vok "write" (Vfs.write_file w.vfs cred "/sfs/server.example.com/home/trip-report" "worked");
  let attr = vok "stat" (Vfs.stat w.vfs cred "/sfs/server.example.com/home/trip-report") in
  Testkit.check_int "authenticated as alice" w.alice.Simos.uid attr.Nfs_types.uid

(* Every handshake error is a typed result that releases its admission
   slot: a refused dial, a dropped connect, a dropped fetch after it, a
   HostID mismatch, a revoked server, and sfskey's SRP session once
   [add] is done. *)
let test_handshake_errors () =
  let w = make_world ~register_alice:false () in
  Sfskey.register_local ~cost:2 w.authserv rng ~user:"alice" ~password:"pw" ~key:w.alice_key;
  Server.serve_readonly w.server
    (Readonly.snapshot ~key:(Lazy.force key_a) ~now_s:0 w.server_fs);
  let path = Server.self_path w.server in
  let released msg = Testkit.check_int msg 0 (Simnet.host_active_conns w.host) in
  let ro msg expect =
    match Client.mount_readonly w.client path with
    | Error e when expect e -> released msg
    | Error e -> Alcotest.fail (msg ^ ": " ^ Client.mount_error_to_string e)
    | Ok _ -> Alcotest.fail (msg ^ ": mounted")
  in
  let key msg =
    match
      Sfskey.fetch w.net rng ~from_host:"client.example.com" ~location:"server.example.com"
        ~user:"alice" ~password:"pw"
    with
    | Error (Sfskey.Unreachable _) -> released msg
    | Error e -> Alcotest.fail (msg ^ ": " ^ Sfskey.error_to_string e)
    | Ok _ -> Alcotest.fail (msg ^ ": fetched")
  in
  let unreachable = function Client.Host_unreachable _ -> true | _ -> false in
  (* Refused at admission. *)
  Simnet.set_admission w.host (Some 0);
  ro "ro: refused dial" unreachable;
  key "sfskey: refused dial";
  Simnet.set_admission w.host None;
  (* Drop everything after the first [pass] messages. *)
  let drop_after pass =
    let tap = Simnet.passive_tap () in
    let seen = ref 0 in
    (tap.Simnet.on_message <- fun _ _ -> incr seen; if !seen > pass then Simnet.Drop else Simnet.Pass);
    Simnet.set_default_tap w.net (Some tap)
  in
  drop_after 0;
  ro "ro: dropped connect" unreachable;
  drop_after 0;
  key "sfskey: dropped connect";
  drop_after 2;
  ro "ro: dropped root fetch" unreachable;
  drop_after 2;
  key "sfskey: dropped SRP hello";
  Simnet.set_default_tap w.net None;
  (* A server whose key does not match the HostID. *)
  let wrong = Pathname.of_server ~location:"server.example.com" ~pubkey:(Lazy.force key_b).Rabin.pub in
  (match Client.mount_readonly w.client wrong with
  | Error (Client.Negotiation_failed _) -> released "ro: HostID mismatch"
  | Error e -> Alcotest.fail (Client.mount_error_to_string e)
  | Ok _ -> Alcotest.fail "mounted a mismatched HostID");
  (match
     Sfskey.add w.net rng (Agent.create w.alice) ~from_host:"client.example.com"
       ~location:"server.example.com" ~user:"alice" ~password:"pw"
   with
  | Ok _ -> released "sfskey add"
  | Error e -> Alcotest.fail (Sfskey.error_to_string e));
  (* The clean read-only mount still works, and holds its one slot. *)
  (match Client.mount_readonly w.client path with
  | Ok ops -> (
      Testkit.check_int "ro mount holds a slot" 1 (Simnet.host_active_conns w.host);
      match ops.Fs_intf.fs_getattr Simos.anonymous_cred ops.Fs_intf.fs_root with
      | Ok attr -> Testkit.check_bool "verified root is a directory" true (attr.Nfs_types.ftype = Nfs_types.NF_DIR)
      | Error e -> Alcotest.fail (Nfs_types.status_to_string e))
  | Error e -> Alcotest.fail (Client.mount_error_to_string e));
  (* A revoked server refuses every caller of the one dial, which
     closes the connection each time. *)
  let revoked_host = Simnet.add_host w.net "revoked.example.com" in
  let revoked =
    Server.create w.net ~host:revoked_host ~location:"revoked.example.com" ~key:(Lazy.force key_b)
      ~rng
      ~backend:(Memfs_ops.make ~fs:w.server_fs ~disk:(Diskmodel.create w.clock))
      ~authserv:w.authserv ()
  in
  ignore (Server.revoke revoked);
  let path = Server.self_path revoked in
  let closed msg = Testkit.check_int msg 0 (Simnet.host_active_conns revoked_host) in
  (match Client.mount w.client path with
  | Error (Client.Revoked (Some _)) -> closed "rw: revoked"
  | Error e -> Alcotest.fail ("rw: " ^ Client.mount_error_to_string e)
  | Ok _ -> Alcotest.fail "rw: mounted a revoked server");
  (match Client.mount_readonly w.client path with
  | Error (Client.Revoked _) -> closed "ro: revoked"
  | Error e -> Alcotest.fail ("ro: " ^ Client.mount_error_to_string e)
  | Ok _ -> Alcotest.fail "ro: mounted a revoked server");
  match
    Sfskey.fetch w.net rng ~from_host:"client.example.com" ~location:"revoked.example.com"
      ~user:"alice" ~password:"pw"
  with
  | Error (Sfskey.Auth_failed "server key revoked") -> closed "sfskey: revoked"
  | Error e -> Alcotest.fail ("sfskey: " ^ Sfskey.error_to_string e)
  | Ok _ -> Alcotest.fail "sfskey: fetched from a revoked server"

let test_certification_path () =
  let w = make_world () in
  let cred = Simos.cred_of_user w.alice in
  let path = Server.self_path w.server in
  (* A local certification directory with a link: verisign-style CA on
     local disk. *)
  vok "mkdir" (Vfs.mkdir w.vfs cred "/certs");
  vok "link" (Vfs.symlink w.vfs cred ~target:(Pathname.to_string path) "/certs/work");
  Keymgmt.install_certification_path w.alice_agent w.vfs [ "/certs" ];
  (* Now /sfs/work resolves through the certification path. *)
  vok "resolved" (Vfs.mkdir w.vfs cred "/sfs/work/home/from-certpath");
  ignore (vok "check" (Vfs.stat w.vfs cred (Pathname.to_string path ^ "/home/from-certpath")))

let test_pki_gateway () =
  let w = make_world () in
  let cred = Simos.cred_of_user w.alice in
  let sk = Lazy.force key_a in
  (* An "SSL-certificate" oracle mapping hostnames to keys. *)
  Keymgmt.install_pki_gateway w.alice_agent ~prefix:"ssl:" ~lookup:(fun host ->
      if host = "server.example.com" then Some ("server.example.com", sk.Rabin.pub) else None);
  vok "via pki" (Vfs.mkdir w.vfs cred "/sfs/ssl:server.example.com/home/pki-dir");
  vexpect "unknown host" (Vfs.readdir w.vfs cred "/sfs/ssl:unknown.example.com")

let test_bookmark () =
  let w = make_world () in
  let cred = Simos.cred_of_user w.alice in
  let base = Pathname.to_string (Server.self_path w.server) in
  vok "bookmarks dir" (Vfs.mkdir w.vfs cred "/bookmarks");
  (match Keymgmt.bookmark w.vfs cred ~bookmarks_dir:"/bookmarks" ~cwd:(base ^ "/home") with
  | Ok link -> Testkit.check_string "named by location" "/bookmarks/server.example.com" link
  | Error e -> Alcotest.fail (Vfs.verror_to_string e));
  (* cd through the bookmark. *)
  ignore (vok "resolves" (Vfs.readdir w.vfs cred "/bookmarks/server.example.com"))

(* --- Split keys (section 2.5.1) --- *)

let test_keysplit_roundtrip () =
  let key = Lazy.force key_a in
  let shares = Keysplit.split rng key ~n:3 in
  Testkit.check_int "three shares" 3 (List.length shares);
  (match Keysplit.combine shares with
  | Some k -> Testkit.check_bool "roundtrip" true (Rabin.pub_equal k.Rabin.pub key.Rabin.pub)
  | None -> Alcotest.fail "combine failed");
  (* Any proper subset is useless. *)
  Testkit.check_bool "two of three insufficient" true (Keysplit.combine (List.tl shares) = None);
  Testkit.check_bool "single share insufficient" true (Keysplit.combine [ List.hd shares ] = None);
  (* No share equals (or parses as) the key itself. *)
  List.iter
    (fun s ->
      Testkit.check_bool "share is not the key" true
        (Rabin.priv_of_string s.Keysplit.bytes = None))
    shares;
  (* Proactive refresh: same key, incompatible shares. *)
  (match Keysplit.refresh rng shares with
  | Some fresh ->
      (match Keysplit.combine fresh with
      | Some k -> Testkit.check_bool "refreshed key same" true (Rabin.pub_equal k.Rabin.pub key.Rabin.pub)
      | None -> Alcotest.fail "refresh combine");
      let mixed = List.hd fresh :: List.tl shares in
      (match Keysplit.combine mixed with
      | None -> ()
      | Some k ->
          Testkit.check_bool "mixed epochs do not reconstruct" false
            (Rabin.pub_equal k.Rabin.pub key.Rabin.pub))
  | None -> Alcotest.fail "refresh failed");
  (* Serialization. *)
  let s0 = List.hd shares in
  match Keysplit.share_of_string (Keysplit.share_to_string s0) with
  | Some s -> Testkit.check_bool "share roundtrip" true (s = s0)
  | None -> Alcotest.fail "share serialization"

let test_split_key_agent () =
  (* The agent holds one share; the authserver holds the other.  The
     agent never stores the whole key, yet authentication works. *)
  let w = make_world ~register_alice:false () in
  (match Authserv.register_pubkey w.authserv ~user:"alice" w.alice_key.Rabin.pub with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  match Keysplit.split rng w.alice_key ~n:2 with
  | [ agent_share; server_share ] ->
      (match
         Authserv.register_key_share w.authserv ~user:"alice"
           (Keysplit.share_to_string server_share)
       with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      let agent = Agent.create w.alice in
      Agent.add_split_key agent ~local:agent_share ~fetch_rest:(fun () ->
          match Option.bind (Authserv.key_share w.authserv ~user:"alice") Keysplit.share_of_string with
          | Some s -> [ s ]
          | None -> []);
      Testkit.check_bool "agent holds no direct key" true (Agent.keys agent = []);
      Vfs.set_agent w.vfs ~uid:w.alice.Simos.uid agent;
      let cred = Simos.cred_of_user w.alice in
      let base = Pathname.to_string (Server.self_path w.server) in
      vok "split-key write" (Vfs.write_file w.vfs cred (base ^ "/home/split") "signed via shares");
      let attr = vok "stat" (Vfs.stat w.vfs cred (base ^ "/home/split")) in
      Testkit.check_int "authenticated" w.alice.Simos.uid attr.Nfs_types.uid;
      Testkit.check_bool "signing audited" true (List.length (Agent.audit_trail agent) > 0)
  | _ -> Alcotest.fail "expected two shares"

(* --- Proxy agents (section 2.5.1) --- *)

let test_proxy_agent () =
  (* The remote-login scenario: the user's real agent runs at home; the
     agent on the remote machine holds no keys and forwards signing
     requests. *)
  let w = make_world () in
  let home_agent = w.alice_agent in
  let remote_agent = Agent.create w.alice in
  Agent.add_proxy remote_agent ~name:"home" (Agent.forwarder home_agent);
  Testkit.check_bool "remote agent has no keys" true (Agent.keys remote_agent = []);
  Vfs.set_agent w.vfs ~uid:w.alice.Simos.uid remote_agent;
  let cred = Simos.cred_of_user w.alice in
  let base = Pathname.to_string (Server.self_path w.server) in
  vok "proxied write" (Vfs.write_file w.vfs cred (base ^ "/home/proxied") "signed at home");
  let attr = vok "stat" (Vfs.stat w.vfs cred (base ^ "/home/proxied")) in
  Testkit.check_int "authenticated via proxy" w.alice.Simos.uid attr.Nfs_types.uid;
  (* The home agent audited the operation it performed for the proxy. *)
  Testkit.check_bool "home agent audit trail" true (List.length (Agent.audit_trail home_agent) > 0);
  (* A proxy to a dead agent degrades to anonymous access, not failure. *)
  let dead_proxy = Agent.create w.alice in
  Agent.add_proxy dead_proxy ~name:"gone" (fun _ ~seqno:_ -> None);
  let w2 = make_world () in
  Vfs.set_agent w2.vfs ~uid:w2.alice.Simos.uid dead_proxy;
  let base2 = Pathname.to_string (Server.self_path w2.server) in
  match Vfs.stat w2.vfs (Simos.cred_of_user w2.alice) (base2 ^ "/home") with
  | Ok attr -> Testkit.check_bool "anonymous read still works" true (attr.Nfs_types.ftype = Nfs_types.NF_DIR)
  | Error e -> Alcotest.fail (Vfs.verror_to_string e)

(* A signer that splices: it answers with an AuthMsg signed by alice's
   registered key, but for another session (Figure 4's AuthID names
   the session).  The server must check the signature against this
   session's AuthID, deny the request, and leave the user anonymous. *)
let test_spliced_authmsg () =
  let obs = Sfs_obs.Obs.create ~now_us:(fun () -> 0.0) () in
  let w = make_world ~obs () in
  let m =
    match Client.mount w.client (Server.self_path w.server) with
    | Ok m -> m
    | Error e -> Alcotest.fail (Client.mount_error_to_string e)
  in
  let splicer = Agent.create w.alice in
  Agent.add_proxy splicer ~name:"splice" (fun info ~seqno ->
      Some
        (Sfs_proto.Authproto.make_authmsg ~key:w.alice_key
           { info with Sfs_proto.Authproto.session_id = String.make 20 'x' }
           ~seqno));
  Testkit.check_int "anonymous" Sfs_proto.Sfsrw.authno_anonymous (Client.authenticate w.client m splicer);
  Testkit.check_int "one failed validation" 1 (Sfs_obs.Obs.counter obs "auth.validate.fail");
  Testkit.check_int "none granted" 0 (Sfs_obs.Obs.counter obs "auth.validate.ok")

(* --- VFS path-resolution edge cases --- *)

let test_vfs_dotdot_and_relative_links () =
  let w = make_world () in
  let cred = Simos.cred_of_user w.alice in
  vok "mkdirs" (Vfs.mkdir w.vfs cred "/a");
  vok "mkdirs" (Vfs.mkdir w.vfs cred "/a/b");
  vok "write" (Vfs.write_file w.vfs cred "/a/target.txt" "found me");
  (* Relative symlink with dotdot. *)
  vok "rel link" (Vfs.symlink w.vfs cred ~target:"../target.txt" "/a/b/up");
  Testkit.check_string "follows ../" "found me" (vok "read" (Vfs.read_file w.vfs cred "/a/b/up"));
  (* Lexical dotdot in the path itself. *)
  Testkit.check_string "path dotdot" "found me"
    (vok "read2" (Vfs.read_file w.vfs cred "/a/b/../target.txt"));
  (* Dotdot above the root stays at the root. *)
  ignore (vok "above root" (Vfs.readdir w.vfs cred "/../../a"));
  (* Dot components are ignored. *)
  Testkit.check_string "dot" "found me" (vok "read3" (Vfs.read_file w.vfs cred "/a/./target.txt"));
  (* lstat does not follow; stat does. *)
  let la = vok "lstat" (Vfs.lstat w.vfs cred "/a/b/up") in
  Testkit.check_bool "lstat sees the link" true (la.Nfs_types.ftype = Nfs_types.NF_LNK);
  let sa = vok "stat" (Vfs.stat w.vfs cred "/a/b/up") in
  Testkit.check_bool "stat follows" true (sa.Nfs_types.ftype = Nfs_types.NF_REG);
  (* Relative paths are rejected. *)
  (match Vfs.read_file w.vfs cred "a/target.txt" with
  | Error Vfs.Not_absolute -> ()
  | _ -> Alcotest.fail "relative path accepted")

let test_vfs_dotdot_across_mount () =
  let w = make_world () in
  let cred = Simos.cred_of_user w.alice in
  let base = Pathname.to_string (Server.self_path w.server) in
  vok "mkdir remote" (Vfs.mkdir w.vfs cred (base ^ "/home/deep"));
  (* ".." from inside an SFS mount pops back across the automount. *)
  Alcotest.(check (list string)) "dotdot crosses the mount boundary"
    (vok "direct" (Vfs.readdir w.vfs cred base))
    (vok "via dotdot" (Vfs.readdir w.vfs cred (base ^ "/home/deep/../..")))

let test_ssu_maps_root_to_user_agent () =
  (* The ssu utility: operations performed in a super-user shell map to
     the user's own agent (paper footnote 2). *)
  let w = make_world () in
  Vfs.set_agent w.vfs ~uid:0 w.alice_agent;
  let base = Pathname.to_string (Server.self_path w.server) in
  let root_cred = Simos.cred_of_user Simos.root_user in
  vok "root writes via alice's agent" (Vfs.write_file w.vfs root_cred (base ^ "/home/su-file") "x");
  let attr = vok "stat" (Vfs.stat w.vfs root_cred (base ^ "/home/su-file")) in
  (* The server authenticated alice's key: remote identity is alice,
     regardless of the local root uid. *)
  Testkit.check_int "remote identity is alice" w.alice.Simos.uid attr.Nfs_types.uid

let test_agent_hook_ordering () =
  let w = make_world () in
  let cred = Simos.cred_of_user w.alice in
  vok "t1" (Vfs.write_file w.vfs cred "/t1" "first");
  vok "t2" (Vfs.write_file w.vfs cred "/t2" "second");
  (* Static links win over hooks; hooks run in installation order. *)
  Agent.add_hook w.alice_agent ~name:"h1" (fun n -> if n = "x" then Some "/t1" else None);
  Agent.add_hook w.alice_agent ~name:"h2" (fun n -> if n = "x" || n = "y" then Some "/t2" else None);
  Testkit.check_string "first hook wins" "first" (vok "x" (Vfs.read_file w.vfs cred "/sfs/x"));
  Testkit.check_string "later hook reachable" "second" (vok "y" (Vfs.read_file w.vfs cred "/sfs/y"));
  Agent.add_link w.alice_agent ~name:"x" ~target:"/t2";
  Testkit.check_string "static link beats hooks" "second" (vok "x2" (Vfs.read_file w.vfs cred "/sfs/x"));
  Agent.remove_hook w.alice_agent "h2";
  (match Vfs.read_file w.vfs cred "/sfs/y" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "removed hook still resolves")

(* --- authserv SRP protocol misuse --- *)

let test_srp_connection_protocol_errors () =
  let w = make_world ~register_alice:false () in
  Sfskey.register_local ~cost:2 w.authserv rng ~user:"alice" ~password:"pw" ~key:w.alice_key;
  let handler = Authserv.srp_connection w.authserv ~self_cert_path:"/sfs/x:y" in
  let send req = Sfs_xdr.Xdr.run (handler (Sfs_xdr.Xdr.encode Authserv.enc_srp_request req)) Authserv.dec_srp_response in
  (* Proof before hello: protocol error. *)
  (match send (Authserv.Srp_client_proof (String.make 20 'x')) with
  | Ok (Authserv.Srp_failed _) -> ()
  | _ -> Alcotest.fail "out-of-order proof accepted");
  (* Registration before authentication: protocol error. *)
  (match send (Authserv.Srp_register "sealed?") with
  | Ok (Authserv.Srp_failed _) -> ()
  | _ -> Alcotest.fail "unauthenticated registration accepted");
  (* Unknown user: indistinguishable failure, logged. *)
  (match send (Authserv.Srp_hello { user = "nobody"; a_pub = Sfs_bignum.Nat.one }) with
  | Ok (Authserv.Srp_failed reason) ->
      Testkit.check_string "generic failure" "authentication failed" reason
  | _ -> Alcotest.fail "unknown user leaked information");
  Testkit.check_bool "logged" true (List.length (Authserv.failed_attempts w.authserv) > 0);
  (* Garbage bytes get a parse failure, not an exception. *)
  match Sfs_xdr.Xdr.run (handler "garbage") Authserv.dec_srp_response with
  | Ok (Authserv.Srp_failed _) -> ()
  | _ -> Alcotest.fail "garbage not handled"

let test_sfskey_remote_key_change () =
  (* "It allows them to connect over the network with sfskey and change
     their public keys." *)
  let w = make_world ~register_alice:false () in
  Sfskey.register_local ~cost:2 w.authserv rng ~user:"alice" ~password:"pw" ~key:w.alice_key;
  match Sfskey.fetch w.net rng ~from_host:"client.example.com" ~location:"server.example.com"
          ~user:"alice" ~password:"pw" with
  | Error e -> Alcotest.fail (Sfskey.error_to_string e)
  | Ok fetched -> (
      let new_key = Rabin.generate ~bits:512 rng in
      match
        Sfskey.register_remote fetched
          { Authserv.reg_pubkey = Some new_key.Rabin.pub; reg_srp = None; reg_encrypted_key = None }
      with
      | Error e -> Alcotest.fail (Sfskey.error_to_string e)
      | Ok () -> (
          match Authserv.cred_of_pubkey w.authserv new_key.Rabin.pub with
          | Some (user, _) -> Testkit.check_string "new key registered" "alice" user
          | None -> Alcotest.fail "new key not found"))

(* The server's sealed SRP payload, sent back on the same connection
   as a registration: each direction has its own key, so the server
   refuses the seal rather than open it. *)
let test_srp_reflected_payload () =
  let w = make_world ~register_alice:false () in
  Sfskey.register_local ~cost:2 w.authserv rng ~user:"alice" ~password:"pw" ~key:w.alice_key;
  let tap = Simnet.passive_tap () in
  Simnet.set_default_tap w.net (Some tap);
  match
    Sfskey.fetch w.net rng ~from_host:"client.example.com" ~location:"server.example.com"
      ~user:"alice" ~password:"pw"
  with
  | Error e -> Alcotest.fail (Sfskey.error_to_string e)
  | Ok f -> (
      let decode reply = Sfs_xdr.Xdr.run reply Authserv.dec_srp_response in
      (* The newest reply on the wire is the server's proof. *)
      let sealed =
        match List.find_opt (fun (dir, _) -> dir = Simnet.To_client) tap.Simnet.observed with
        | Some (_, reply) -> (
            match decode reply with
            | Ok (Authserv.Srp_server_proof { sealed; _ }) -> sealed
            | _ -> Alcotest.fail "last reply is not the server proof")
        | None -> Alcotest.fail "no reply observed"
      in
      let request = Sfs_xdr.Xdr.encode Authserv.enc_srp_request (Authserv.Srp_register sealed) in
      match decode (f.Sfskey.srp_exchange request) with
      | Ok (Authserv.Srp_failed reason) -> Testkit.check_string "refused" "bad registration seal" reason
      | _ -> Alcotest.fail "reflected payload not refused")

let test_no_anonymous_server () =
  (* A server configured to refuse anonymous access: unauthenticated
     users can negotiate and fetch the root, but no operation passes. *)
  let clock = Simclock.create () in
  let net = Simnet.create clock in
  let host = Simnet.add_host net "strict.example.com" in
  let _c = Simnet.add_host net "client.example.com" in
  let now () = Nfs_types.time_of_us (Simclock.now_us clock) in
  let os = Simos.create () in
  let alice = Simos.add_user os "alice" in
  let fs = Memfs.create ~now () in
  ignore (Memfs.mkdir fs (Simos.cred_of_user Simos.root_user) ~dir:Memfs.root_id "pub" ~mode:0o777);
  let authserv = Authserv.create rng in
  let akey = Rabin.generate ~bits:512 rng in
  Authserv.add_user authserv ~user:"alice" ~cred:(Simos.cred_of_user alice);
  (match Authserv.register_pubkey authserv ~user:"alice" akey.Rabin.pub with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let server =
    Server.create ~allow_anonymous:false net ~host ~location:"strict.example.com"
      ~key:(Lazy.force key_a) ~rng ~backend:(Memfs_ops.make ~fs ~disk:(Diskmodel.create clock))
      ~authserv ()
  in
  let client = Client.create net ~from_host:"client.example.com" ~rng () in
  let client_fs = Memfs.create ~now () in
  let vfs = Vfs.make ~sfscd:client ~clock ~root_fs:(Memfs_ops.make ~fs:client_fs ~disk:(Diskmodel.create clock)) () in
  let base = Pathname.to_string (Server.self_path server) in
  (* bob: no agent at all -> anonymous -> denied everywhere. *)
  let bob = Simos.add_user os "bob" in
  (match Vfs.readdir vfs (Simos.cred_of_user bob) (base ^ "/pub") with
  | Error (Vfs.Errno Nfs_types.NFS3ERR_ACCES) -> ()
  | Error e -> Alcotest.fail (Vfs.verror_to_string e)
  | Ok _ -> Alcotest.fail "anonymous access allowed on a strict server");
  (* alice with her key: fine. *)
  let agent = Agent.create alice in
  Agent.add_key agent akey;
  Vfs.set_agent vfs ~uid:alice.Simos.uid agent;
  ignore (vok "alice allowed" (Vfs.readdir vfs (Simos.cred_of_user alice) (base ^ "/pub")))

(* Section 2.4: after a server's key changes, the old file system's
   root holds forwarding symlinks to the new self-certifying pathname,
   and a client still using the old pathname follows them. *)
let test_forwarding_root () =
  let w = make_world () in
  let cred = Simos.cred_of_user w.alice in
  let root_cred = Simos.cred_of_user Simos.root_user in
  let old_base = Pathname.to_string (Server.self_path w.server) in
  (* The file system moves to a new host under a new key. *)
  let new_host = Simnet.add_host w.net "new.example.com" in
  let now () = Nfs_types.time_of_us (Simclock.now_us w.clock) in
  let new_fs = Memfs.create ~now () in
  (match Memfs.create_file new_fs root_cred ~dir:Memfs.root_id "notes.txt" ~mode:0o644 with
  | Ok (id, _) -> ignore (Memfs.write new_fs root_cred id ~off:0 "moved here")
  | Error _ -> Alcotest.fail "seed new fs");
  let new_server =
    Server.create w.net ~host:new_host ~location:"new.example.com" ~key:(Lazy.force key_b) ~rng
      ~backend:(Memfs_ops.make ~fs:new_fs ~disk:(Diskmodel.create w.clock))
      ~authserv:(Authserv.create rng) ()
  in
  let new_path = Server.self_path new_server in
  Keymgmt.install_forwarding_root w.server_fs ~new_path;
  Alcotest.(check (list string)) "old root holds only the forwarding links" [ ".forward"; "FORWARDED" ]
    (List.sort compare (vok "ls old" (Vfs.readdir w.vfs cred old_base)));
  List.iter
    (fun link ->
      Testkit.check_string (link ^ " names the new path") (Pathname.to_string new_path)
        (vok "readlink" (Vfs.readlink w.vfs cred (old_base ^ "/" ^ link))))
    [ ".forward"; "FORWARDED" ];
  Testkit.check_string "client follows the forwarding link" "moved here"
    (vok "read via old path" (Vfs.read_file w.vfs cred (old_base ^ "/FORWARDED/notes.txt")))

(* An agent that forgets its keys signs nothing, so the user's next
   mount authenticates anonymously: world-readable files still read,
   the user's own private files do not. *)
let test_agent_forget_keys () =
  let w = make_world () in
  let cred = Simos.cred_of_user w.alice in
  let base = Pathname.to_string (Server.self_path w.server) in
  let home =
    match Memfs.lookup w.server_fs cred ~dir:Memfs.root_id "home" with
    | Ok (id, _) -> id
    | Error _ -> Alcotest.fail "no /home"
  in
  let seed ~dir name ~mode =
    match Memfs.create_file w.server_fs cred ~dir name ~mode with
    | Ok (id, _) -> ignore (Memfs.write w.server_fs cred id ~off:0 name)
    | Error _ -> Alcotest.fail ("seed " ^ name)
  in
  seed ~dir:home "public.txt" ~mode:0o644;
  (match Memfs.mkdir w.server_fs cred ~dir:home "private" ~mode:0o700 with
  | Ok (id, _) -> seed ~dir:id "secret.txt" ~mode:0o600
  | Error _ -> Alcotest.fail "seed private");
  Agent.forget_keys w.alice_agent;
  let info =
    {
      Sfs_proto.Authproto.service = "FS";
      location = "server.example.com";
      hostid = "h";
      session_id = "s";
    }
  in
  Testkit.check_int "no signed requests" 0
    (List.length (Agent.sign_requests w.alice_agent info ~seqno_of:Fun.id));
  Testkit.check_string "world-readable file" "public.txt"
    (vok "read public" (Vfs.read_file w.vfs cred (base ^ "/home/public.txt")));
  vexpect "own private file" (Vfs.read_file w.vfs cred (base ^ "/home/private/secret.txt"))

let test_agent_remove_link () =
  let w = make_world () in
  let target = Pathname.to_string (Server.self_path w.server) in
  Agent.add_link w.alice_agent ~name:"work" ~target;
  Agent.add_link w.alice_agent ~name:"play" ~target;
  Agent.remove_link w.alice_agent "work";
  Alcotest.(check (list (pair string string))) "links" [ ("play", target) ] (Agent.links w.alice_agent);
  Alcotest.(check (option string)) "removed name unresolved" None (Agent.resolve_name w.alice_agent "work");
  Alcotest.(check (option string)) "other name kept" (Some target) (Agent.resolve_name w.alice_agent "play")

(* A bare server driven by hand: key negotiation over the raw
   transport, then sealed Sfsrw traffic, so tests see the exact reply
   plaintexts and can meter one request end to end. *)
module Channel = Sfs_proto.Channel
module Keyneg = Sfs_proto.Keyneg
module Sfsrw = Sfs_proto.Sfsrw
module Nfs_proto = Sfs_nfs.Nfs_proto
module Xdr = Sfs_xdr.Xdr
module Obs = Sfs_obs.Obs

type raw_session = {
  r_conn : Simnet.conn;
  r_call : string -> string; (* the dial's one mux over r_conn *)
  r_chan : Channel.t;
  mutable r_xid : int;
  r_session_id : string;
}

(* A server over a fresh Memfs with a world-writable /pub.  The key is
   drawn before the authserv, which is drawn before the server. *)
let raw_server ?allow_anonymous ?obs ?authserv (net : Simnet.t) (rng : Prng.t) (location : string) :
    Server.t =
  let clock = Simnet.clock net in
  let now () = Nfs_types.time_of_us (Simclock.now_us clock) in
  let host = Simnet.add_host net location in
  let fs = Memfs.create ~now () in
  ignore (Memfs.mkdir fs (Simos.cred_of_user Simos.root_user) ~dir:Memfs.root_id "pub" ~mode:0o777);
  let key = Rabin.generate ~bits:512 rng in
  let authserv = match authserv with Some a -> a | None -> Authserv.create rng in
  Server.create ?allow_anonymous ?obs net ~host ~location ~key ~rng
    ~backend:(Memfs_ops.make ~fs ~disk:(Diskmodel.create clock))
    ~authserv ()

let raw_connect (net : Simnet.t) (rng : Prng.t) ~(temp_key : Rabin.priv) (server : Server.t) :
    raw_session =
  let path = Server.self_path server in
  let conn, call, keys =
    match
      Keyneg.dial net ~from_host:"client.example.com" ~location:(Pathname.location path)
        ~hostid:(Pathname.hostid path) ~service:Keyneg.Fs ~extensions:[]
    with
    | Error _ -> Alcotest.fail "connect refused"
    | Ok (conn, call, server_pub) -> (
        match Keyneg.negotiate ~rng ~temp_key ~server_pub call with
        | Ok keys -> (conn, call, keys)
        | Error e -> Alcotest.fail e)
  in
  {
    r_conn = conn;
    r_call = call;
    r_chan = Channel.create ~send_key:keys.Keyneg.kcs ~recv_key:keys.Keyneg.ksc ();
    r_xid = 0;
    r_session_id = keys.Keyneg.session_id;
  }

(* The next Fs_call as plaintext, under a fresh xid. *)
let raw_request (s : raw_session) ~(proc : int) (args : string) : string =
  s.r_xid <- s.r_xid + 1;
  Sfsrw.request_to_string
    (Sfsrw.Fs_call { xid = s.r_xid; authno = 0; proc; trace = 0; span = 0; args })

let raw_open (s : raw_session) (wire : string) : string =
  match Channel.open_ s.r_chan wire with Ok p -> p | Error _ -> Alcotest.fail "reply failed to open"

let raw_exchange (s : raw_session) (plaintext : string) : string =
  raw_open s (s.r_call (Channel.seal s.r_chan plaintext))

let raw_response (reply : string) : (Sfsrw.response, string) result =
  Sfsrw.response_of_slice (Sfs_util.Slice.of_string reply)

let raw_results (reply : string) : string =
  match raw_response reply with
  | Ok (Sfsrw.Fs_reply { results; _ }) -> Sfs_util.Slice.to_string results
  | _ -> Alcotest.fail "not an Fs_reply"

let raw_root (s : raw_session) : Nfs_types.fh =
  match
    Xdr.run (raw_results (raw_exchange s (raw_request s ~proc:Sfsrw.proc_getroot ""))) Nfs_types.dec_fh
  with
  | Ok fh -> fh
  | Error e -> Alcotest.fail e

let raw_handle (reply : string) : Nfs_types.fh =
  match Xdr.run (raw_results reply) (Nfs_proto.dec_res Nfs_proto.dec_lookup_ok) with
  | Ok (Ok (fh, _)) -> fh
  | _ -> Alcotest.fail "no handle in reply"

let pattern n = String.init n (fun i -> Char.chr (((i * 31) + n) land 0xff))

let raw_call (s : raw_session) ~(proc : int) enc v : string =
  raw_exchange s (raw_request s ~proc (Xdr.encode enc v))

(* A fresh server with two raw sessions on it and the handle of /pub. *)
let raw_pair ?obs (seed : string) (location : string) :
    Prng.t * Server.t * raw_session * raw_session * Nfs_types.fh =
  let rng = Prng.create [ seed ] in
  let net = Simnet.create (Simclock.create ()) in
  let _c = Simnet.add_host net "client.example.com" in
  let temp_key = Rabin.generate ~bits:512 rng in
  let server = raw_server ?obs net rng location in
  let a = raw_connect net rng ~temp_key server in
  let b = raw_connect net rng ~temp_key server in
  let pub = raw_handle (raw_call a ~proc:Nfs_proto.proc_lookup Nfs_proto.enc_diropargs (raw_root a, "pub")) in
  (rng, server, a, b, pub)

(* --- Byte-identity pins ---

   SHA-1s over seeded wire output, recorded before the in-place
   marshal/MAC/CBC paths replaced the copying ones: any change to the
   bytes a handle, a reply or a frame puts on the wire fails by name. *)

module Sha1 = Sfs_crypto.Sha1

let hex_digest (h : Sha1.ctx) : string = Sfs_util.Hex.encode (Sha1.final h)

let test_fhcrypt_pin () =
  let f = Fhcrypt.of_prng (Prng.create [ "fhcrypt-pin" ]) in
  let h = Sha1.init () in
  for i = 0 to 63 do
    let inner = String.init (i mod 41) (fun j -> Char.chr (((i * 7) + (j * 13)) land 0xff)) in
    let wire = Fhcrypt.encrypt f inner in
    Sha1.update h wire;
    (match Fhcrypt.decrypt f wire with
    | Some got -> Testkit.check_string "roundtrip" inner got
    | None -> Alcotest.fail "decrypt failed");
    let tampered = Bytes.of_string wire in
    Bytes.set tampered (i mod 8) (Char.chr (Char.code wire.[i mod 8] lxor 0x20));
    Testkit.check_bool "tampered" true (Fhcrypt.decrypt f (Bytes.to_string tampered) = None);
    Testkit.check_bool "short" true
      (Fhcrypt.decrypt f (String.sub wire 0 (String.length wire - 8)) = None);
    (* A valid handle with a block appended decrypts to the same
       prefix under CBC; only the exact length is accepted. *)
    Testkit.check_bool "extended" true (Fhcrypt.decrypt f (wire ^ String.sub wire 0 8) = None)
  done;
  Testkit.check_string "64 wire handles" "81483c92d4242cafc9a6416826b703f8f235aa98" (hex_digest h);
  List.iter
    (fun n ->
      Testkit.check_bool "over-long" true (Fhcrypt.decrypt f (String.make n '\x5a') = None))
    [ 64; 72; 128; 4096 ];
  List.iter
    (fun n -> Testkit.check_bool "short" true (Fhcrypt.decrypt f (String.make n '\x5a') = None))
    [ 0; 1; 8; 15 ]

(* A session covering each NFS procedure, a lease callback, a
   duplicate-request replay, the protocol-error paths and a server
   refusing anonymous access.  Returns the SHA-1 of every reply
   plaintext in order, the first server, and its named handles. *)
let reply_pin_session ?obs ?(on_reply = ignore) (clock : Simclock.t) :
    string * Server.t * (string * Nfs_types.fh) list =
  let rng = Prng.create [ "server-reply-pin" ] in
  let net = Simnet.create clock in
  let _c = Simnet.add_host net "client.example.com" in
  let temp_key = Rabin.generate ~bits:512 rng in
  let h = Sha1.init () in
  let exchange s plaintext =
    let reply = raw_exchange s plaintext in
    Sha1.update h reply;
    on_reply ();
    reply
  in
  let call s ~proc enc v = exchange s (raw_request s ~proc (Xdr.encode enc v)) in
  let server = raw_server ?obs net rng "pin.example.com" in
  let a = raw_connect net rng ~temp_key server in
  let b = raw_connect net rng ~temp_key server in
  let root =
    match
      Xdr.run (raw_results (exchange a (raw_request a ~proc:Sfsrw.proc_getroot ""))) Nfs_types.dec_fh
    with
    | Ok fh -> fh
    | Error e -> Alcotest.fail e
  in
  let pub = raw_handle (call a ~proc:Nfs_proto.proc_lookup Nfs_proto.enc_diropargs (root, "pub")) in
  ignore (exchange a (raw_request a ~proc:Nfs_proto.proc_null ""));
  ignore (call a ~proc:Nfs_proto.proc_getattr Nfs_types.enc_fh root);
  ignore (call a ~proc:Nfs_proto.proc_fsstat Nfs_types.enc_fh root);
  let d = raw_handle (call a ~proc:Nfs_proto.proc_mkdir Nfs_proto.enc_create_args (pub, "d", 0o777)) in
  let create_req =
    raw_request a ~proc:Nfs_proto.proc_create (Xdr.encode Nfs_proto.enc_create_args (d, "f", 0o666))
  in
  let create_reply = exchange a create_req in
  let f = raw_handle create_reply in
  ignore (call a ~proc:Nfs_proto.proc_write Nfs_proto.enc_write_args (f, 0, true, pattern 8192));
  ignore (call a ~proc:Nfs_proto.proc_write Nfs_proto.enc_write_args (f, 8192, false, pattern 100));
  ignore (call a ~proc:Nfs_proto.proc_commit Nfs_proto.enc_read_args (f, 0, 0));
  (match
     Xdr.run
       (raw_results (call a ~proc:Nfs_proto.proc_read Nfs_proto.enc_read_args (f, 0, 8192)))
       (Nfs_proto.dec_res Nfs_proto.dec_read_ok)
   with
  | Ok (Ok (got, false, _)) -> Testkit.check_string "read back" (pattern 8192) got
  | _ -> Alcotest.fail "read failed");
  ignore (call a ~proc:Nfs_proto.proc_read Nfs_proto.enc_read_args (f, 8000, 1000));
  ignore
    (call a ~proc:Nfs_proto.proc_setattr Nfs_proto.enc_setattr_args
       (f, { Nfs_types.sattr_empty with Nfs_types.set_mode = Some 0o644 }));
  ignore (call a ~proc:Nfs_proto.proc_lookup Nfs_proto.enc_diropargs (d, "f"));
  ignore (call a ~proc:Nfs_proto.proc_access Nfs_proto.enc_access_args (f, 0x3f));
  let l = raw_handle (call a ~proc:Nfs_proto.proc_symlink Nfs_proto.enc_symlink_args (d, "l", "f")) in
  ignore (call a ~proc:Nfs_proto.proc_readlink Nfs_types.enc_fh l);
  ignore (call a ~proc:Nfs_proto.proc_link Nfs_proto.enc_link_args (f, d, "g"));
  ignore (call a ~proc:Nfs_proto.proc_readdirplus Nfs_types.enc_fh d);
  ignore (call a ~proc:Nfs_proto.proc_rename Nfs_proto.enc_rename_args (d, "g", d, "h"));
  ignore (call a ~proc:Nfs_proto.proc_remove Nfs_proto.enc_diropargs (d, "h"));
  ignore (call a ~proc:Nfs_proto.proc_mkdir Nfs_proto.enc_create_args (d, "e", 0o755));
  ignore (call a ~proc:Nfs_proto.proc_rmdir Nfs_proto.enc_diropargs (d, "e"));
  ignore (call a ~proc:Nfs_proto.proc_lookup Nfs_proto.enc_diropargs (d, "missing"));
  (* Lease callbacks: b holds a lease on f, a's write queues b an
     invalidation, b's next reply carries it. *)
  ignore (call b ~proc:Nfs_proto.proc_getattr Nfs_types.enc_fh f);
  ignore (call a ~proc:Nfs_proto.proc_write Nfs_proto.enc_write_args (f, 0, true, pattern 10));
  (match raw_response (call b ~proc:Nfs_proto.proc_getattr Nfs_types.enc_fh d) with
  | Ok (Sfsrw.Fs_reply { invalidations = [ inv ]; _ }) -> Testkit.check_string "callback" f inv
  | _ -> Alcotest.fail "no invalidation callback");
  (* Duplicate-request-cache replay: the same xid and arguments again. *)
  Testkit.check_string "drc replay" create_reply (exchange a create_req);
  (* Proto_error: unknown procedure, unparsable arguments, unparsable
     request. *)
  let proto_error reply =
    match raw_response reply with
    | Ok (Sfsrw.Proto_error _) -> ()
    | _ -> Alcotest.fail "expected a protocol error"
  in
  proto_error (exchange a (raw_request a ~proc:99 ""));
  proto_error (exchange a (raw_request a ~proc:Nfs_proto.proc_getattr "xx"));
  proto_error (exchange a "garbage");
  (* A server that refuses anonymous access still serves the root. *)
  let strict = raw_connect net rng ~temp_key (raw_server ~allow_anonymous:false net rng "strict.example.com") in
  ignore (exchange strict (raw_request strict ~proc:Sfsrw.proc_getroot ""));
  ignore (call strict ~proc:Nfs_proto.proc_getattr Nfs_types.enc_fh root);
  (hex_digest h, server, [ ("root", root); ("pub", pub); ("d", d); ("f", f); ("l", l) ])

(* Each handler runs when the request is submitted to the session's
   mux, so the attribute timestamps are those of the submit instants. *)
let reply_pin_digest = "d29db2a417a004fa600ce57f5ec0fc7a53b3d7e1"

let test_server_reply_pin () =
  let digest, _, _ = reply_pin_session (Simclock.create ()) in
  Testkit.check_string "reply plaintexts" reply_pin_digest digest

module Lease = Sfs_proto.Lease

(* Where the pin session's replies grant and invalidate leases.  No
   reply byte shows the order of a reply's lease duties (the ACCESS
   grant, the READDIRPLUS grant, LINK's two invalidations); the lease
   counters after each reply and the holders each handle is left with
   do. *)
let test_server_lease_points () =
  let clock = Simclock.create () in
  let obs = Obs.create ~now_us:(fun () -> Simclock.now_us clock) () in
  (* One token per reply: g for each new grant, p for each refreshed
     lease, i for each queued invalidation, "." for none. *)
  let steps = ref [] and last = Hashtbl.create 3 in
  let on_reply () =
    let took (name, c) =
      let n = Obs.counter obs name in
      let before = Option.value (Hashtbl.find_opt last name) ~default:0 in
      Hashtbl.replace last name n;
      String.make (n - before) c
    in
    let kinds = [ ("lease.grants", 'g'); ("lease.piggyback", 'p'); ("lease.invalidations", 'i') ] in
    let token = String.concat "" (List.map took kinds) in
    steps := (if token = "" then "." else token) :: !steps
  in
  let digest, server, handles = reply_pin_session ~obs ~on_reply clock in
  Testkit.check_string "reply plaintexts" reply_pin_digest digest;
  Testkit.check_string "lease work per reply"
    ". g . g . g g g g . p p . p p g . g gppp . . g . . g gi g . . . . . ."
    (String.concat " " (List.rev !steps));
  let counted (k, v) =
    if String.starts_with ~prefix:"lease." k || String.starts_with ~prefix:"nfs.op." k then
      Some (Printf.sprintf "%s=%d" k v)
    else None
  in
  Testkit.check_string "lease and procedure counters"
    ("lease.grants=13 lease.invalidations=1 lease.piggyback=7 nfs.op.access=1 nfs.op.commit=1 "
   ^ "nfs.op.create=1 nfs.op.fsstat=1 nfs.op.getattr=4 nfs.op.link=1 nfs.op.lookup=3 "
   ^ "nfs.op.mkdir=2 nfs.op.null=1 nfs.op.proc99=1 nfs.op.read=2 nfs.op.readdirplus=1 "
   ^ "nfs.op.readlink=1 nfs.op.remove=1 nfs.op.rename=1 nfs.op.rmdir=1 nfs.op.setattr=1 "
   ^ "nfs.op.symlink=1 nfs.op.write=3")
    (String.concat " " (List.filter_map counted (Obs.snapshot obs).Obs.snap_counters));
  Testkit.check_string "lease holders" "root=1 pub=0 d=1 f=1 l=1"
    (String.concat " "
       (List.map
          (fun (name, fh) -> Printf.sprintf "%s=%d" name (Lease.holder_count (Server.leases server) fh))
          handles))

(* The order in which a mutation's invalidations reach another holder:
   LINK invalidates the directory before the target, RENAME the
   from-directory before the to-directory, whatever order the holder
   was granted them in. *)
let test_server_callback_order () =
  let _, _, a, b, pub = raw_pair "server-callback-order" "order.example.com" in
  let make proc name = raw_handle (raw_call a ~proc Nfs_proto.enc_create_args (pub, name, 0o777)) in
  let d = make Nfs_proto.proc_mkdir "d" in
  let f = make Nfs_proto.proc_create "f" in
  (* b caches the attributes of [held], a's [mutation] succeeds, and
     b's next reply carries the invalidations. *)
  let callbacks held dec mutation =
    List.iter (fun h -> ignore (raw_call b ~proc:Nfs_proto.proc_getattr Nfs_types.enc_fh h)) held;
    (match Xdr.run (raw_results (mutation ())) (Nfs_proto.dec_res dec) with
    | Ok (Ok _) -> ()
    | _ -> Alcotest.fail "mutation failed");
    match raw_response (raw_exchange b (raw_request b ~proc:Nfs_proto.proc_null "")) with
    | Ok (Sfsrw.Fs_reply { invalidations; _ }) -> invalidations
    | _ -> Alcotest.fail "not an Fs_reply"
  in
  Alcotest.(check (list string)) "LINK: directory, then target" [ d; f ]
    (callbacks [ f; d ] Nfs_types.dec_fattr (fun () ->
         raw_call a ~proc:Nfs_proto.proc_link Nfs_proto.enc_link_args (f, d, "k")));
  Alcotest.(check (list string)) "RENAME: from, then to" [ pub; d ]
    (callbacks [ d; pub ] Nfs_proto.dec_unit_ok (fun () ->
         raw_call a ~proc:Nfs_proto.proc_rename Nfs_proto.enc_rename_args (pub, "f", d, "g")))

(* Handles this server never issued: random bytes, a real handle one
   block short, an NFS 3 handle and a bare backend handle (/pub's
   inode number).  Each is answered
   NFS3ERR_BADHANDLE on GETATTR, LOOKUP and READ, and as the second
   handle of a RENAME or LINK whose first is good.  None adds a lease
   holder, queues an invalidation or changes the namespace. *)
let test_server_forged_handles () =
  let obs = Obs.create ~now_us:(fun () -> 0.0) () in
  let rng, server, a, b, pub = raw_pair ~obs "server-forged-handles" "forge.example.com" in
  let f =
    raw_handle (raw_call a ~proc:Nfs_proto.proc_create Nfs_proto.enc_create_args (pub, "f", 0o666))
  in
  ignore (raw_call a ~proc:Nfs_proto.proc_write Nfs_proto.enc_write_args (f, 0, true, pattern 100));
  let names () =
    match
      Xdr.run
        (raw_results (raw_call a ~proc:Nfs_proto.proc_readdirplus Nfs_types.enc_fh pub))
        (Nfs_proto.dec_res Nfs_proto.dec_readdir_ok)
    with
    | Ok (Ok entries) -> List.sort compare (List.map (fun de -> de.Nfs_types.d_name) entries)
    | _ -> Alcotest.fail "readdir failed"
  in
  let before = names () in
  (* b holds leases on pub and f too: a mutation by a would queue b an
     invalidation. *)
  ignore (raw_call b ~proc:Nfs_proto.proc_getattr Nfs_types.enc_fh pub);
  ignore (raw_call b ~proc:Nfs_proto.proc_getattr Nfs_types.enc_fh f);
  let leases = Server.leases server in
  let holders () = List.map (Lease.holder_count leases) [ pub; f ] in
  let held = holders () in
  Alcotest.(check (list int)) "both connections hold pub and f" [ 2; 2 ] held;
  let bad what dec reply =
    match Xdr.run (raw_results reply) (Nfs_proto.dec_res dec) with
    | Ok (Error Nfs_types.NFS3ERR_BADHANDLE) -> ()
    | _ -> Alcotest.failf "%s: not NFS3ERR_BADHANDLE" what
  in
  let forged =
    [
      ("random", Prng.random_bytes rng 16);
      ("truncated", String.sub f 0 (String.length f - 8));
      ("nfs3", "nfs3:2");
      ("bare", "2");
    ]
  in
  List.iter
    (fun (kind, h) ->
      let what proc = kind ^ " " ^ proc in
      bad (what "GETATTR") Nfs_types.dec_fattr
        (raw_call a ~proc:Nfs_proto.proc_getattr Nfs_types.enc_fh h);
      bad (what "LOOKUP") Nfs_proto.dec_lookup_ok
        (raw_call a ~proc:Nfs_proto.proc_lookup Nfs_proto.enc_diropargs (h, "f"));
      bad (what "READ") Nfs_proto.dec_read_ok
        (raw_call a ~proc:Nfs_proto.proc_read Nfs_proto.enc_read_args (h, 0, 100));
      bad (what "RENAME") Nfs_proto.dec_unit_ok
        (raw_call a ~proc:Nfs_proto.proc_rename Nfs_proto.enc_rename_args (pub, "f", h, "g"));
      bad (what "LINK") Nfs_types.dec_fattr
        (raw_call a ~proc:Nfs_proto.proc_link Nfs_proto.enc_link_args (f, h, "g"));
      Testkit.check_int (what "holders") 0 (Lease.holder_count leases h))
    forged;
  Alcotest.(check (list int)) "holders unchanged" held (holders ());
  Testkit.check_int "no invalidation queued" 0 (Lease.pending_count leases);
  Testkit.check_int "no invalidation sent" 0 (Obs.counter obs "lease.invalidations");
  Alcotest.(check (list string)) "namespace unchanged" before (names ())

(* --- Allocation guards --- *)

(* The same signed Auth_req sent twice on one session: the first is
   granted, and the second is a replay the server's sequence window
   must deny (Figure 4, footnote 4). *)
let test_auth_replay_denied () =
  let rng = Prng.create [ "auth-replay" ] in
  let net = Simnet.create (Simclock.create ()) in
  let _c = Simnet.add_host net "client.example.com" in
  let temp_key = Rabin.generate ~bits:512 rng in
  let authserv = Authserv.create rng in
  let alice = Simos.add_user (Simos.create ()) "alice" in
  let key = Rabin.generate ~bits:512 rng in
  Authserv.add_user authserv ~user:"alice" ~cred:(Simos.cred_of_user alice);
  (match Authserv.register_pubkey authserv ~user:"alice" key.Rabin.pub with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let server = raw_server ~authserv net rng "replay.example.com" in
  let s = raw_connect net rng ~temp_key server in
  let path = Server.self_path server in
  let info =
    {
      Sfs_proto.Authproto.service = "FS";
      location = Pathname.location path;
      hostid = Pathname.hostid path;
      session_id = s.r_session_id;
    }
  in
  let authmsg = Sfs_proto.Authproto.(authmsg_to_string (make_authmsg ~key info ~seqno:1)) in
  let req = Sfsrw.request_to_string (Sfsrw.Auth_req { seqno = 1; authmsg }) in
  (match raw_response (raw_exchange s req) with
  | Ok (Sfsrw.Auth_granted _) -> ()
  | _ -> Alcotest.fail "first request not granted");
  match raw_response (raw_exchange s req) with
  | Ok (Sfsrw.Auth_denied _) -> ()
  | _ -> Alcotest.fail "replayed request not denied"

(* --- A reused xid is a new call unless everything else matches ---

   The server's duplicate request cache keys on (client host, xid).  A
   call that reuses an xid with other arguments, or as another user, is
   not a retransmission: it must run. *)

(* An Fs_call under a chosen xid and authno. *)
let raw_fs_call (s : raw_session) ~(xid : int) ~(authno : int) ~(proc : int) enc v : string =
  raw_exchange s
    (Sfsrw.request_to_string
       (Sfsrw.Fs_call { xid; authno; proc; trace = 0; span = 0; args = Xdr.encode enc v }))

let test_drc_reused_xid_other_args () =
  let _, _, a, _, pub = raw_pair "drc-reused-xid-args" "xid.example.com" in
  ignore (raw_call a ~proc:Nfs_proto.proc_create Nfs_proto.enc_create_args (pub, "f", 0o666));
  let xid = a.r_xid + 1 in
  let lookup name =
    Xdr.run
      (raw_results
         (raw_fs_call a ~xid ~authno:Sfsrw.authno_anonymous ~proc:Nfs_proto.proc_lookup
            Nfs_proto.enc_diropargs (pub, name)))
      (Nfs_proto.dec_res Nfs_proto.dec_lookup_ok)
  in
  (match lookup "f" with Ok (Ok _) -> () | _ -> Alcotest.fail "lookup of f failed");
  match lookup "missing" with
  | Ok (Error Nfs_types.NFS3ERR_NOENT) -> ()
  | _ -> Alcotest.fail "the lookup of missing was answered with the lookup of f"

(* Alice authenticates on a raw session and creates a 0600 file.  Her
   ACCESS call grants read and modify; the same call under the same
   xid, sent anonymously, must grant nothing. *)
let test_drc_reused_xid_other_user () =
  let rng = Prng.create [ "drc-reused-xid-user" ] in
  let net = Simnet.create (Simclock.create ()) in
  let _c = Simnet.add_host net "client.example.com" in
  let temp_key = Rabin.generate ~bits:512 rng in
  let authserv = Authserv.create rng in
  let alice = Simos.add_user (Simos.create ()) "alice" in
  let key = Rabin.generate ~bits:512 rng in
  Authserv.add_user authserv ~user:"alice" ~cred:(Simos.cred_of_user alice);
  (match Authserv.register_pubkey authserv ~user:"alice" key.Rabin.pub with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let server = raw_server ~authserv net rng "xid.example.com" in
  let s = raw_connect net rng ~temp_key server in
  let path = Server.self_path server in
  let info =
    {
      Sfs_proto.Authproto.service = "FS";
      location = Pathname.location path;
      hostid = Pathname.hostid path;
      session_id = s.r_session_id;
    }
  in
  let authmsg = Sfs_proto.Authproto.(authmsg_to_string (make_authmsg ~key info ~seqno:1)) in
  let authno =
    match raw_response (raw_exchange s (Sfsrw.request_to_string (Sfsrw.Auth_req { seqno = 1; authmsg }))) with
    | Ok (Sfsrw.Auth_granted { authno; _ }) -> authno
    | _ -> Alcotest.fail "alice not granted"
  in
  let pub = raw_handle (raw_call s ~proc:Nfs_proto.proc_lookup Nfs_proto.enc_diropargs (raw_root s, "pub")) in
  let f =
    raw_handle
      (raw_fs_call s ~xid:(s.r_xid + 1) ~authno ~proc:Nfs_proto.proc_create Nfs_proto.enc_create_args
         (pub, "f", 0o600))
  in
  let want = Nfs_types.(access_read lor access_modify) in
  let access authno =
    match
      Xdr.run
        (raw_results
           (raw_fs_call s ~xid:(s.r_xid + 2) ~authno ~proc:Nfs_proto.proc_access
              Nfs_proto.enc_access_args (f, want)))
        (Nfs_proto.dec_res Nfs_proto.dec_access_ok)
    with
    | Ok (Ok (_, granted)) -> granted
    | _ -> Alcotest.fail "access failed"
  in
  Testkit.check_int "alice" want (access authno);
  Testkit.check_int "anonymous, same xid" 0 (access Sfsrw.authno_anonymous)

(* An AuthMsg signed by a key no user registered maps to no one, while
   alice's key is registered. *)
let test_authserv_unregistered_key () =
  let rng = Prng.create [ "authserv-unregistered-key" ] in
  let authserv = Authserv.create rng in
  let alice = Simos.add_user (Simos.create ()) "alice" in
  Authserv.add_user authserv ~user:"alice" ~cred:(Simos.cred_of_user alice);
  (match Authserv.register_pubkey authserv ~user:"alice" (Rabin.generate ~bits:512 rng).Rabin.pub with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let info =
    {
      Sfs_proto.Authproto.service = "FS";
      location = "server.example.com";
      hostid = String.make Hostid.size 'h';
      session_id = String.make 20 's';
    }
  in
  let stranger = Rabin.generate ~bits:512 rng in
  let authmsg = Sfs_proto.Authproto.(authmsg_to_string (make_authmsg ~key:stranger info ~seqno:1)) in
  match
    Authserv.validate authserv ~authmsg ~authid:(Sfs_proto.Authproto.authid_of info) ~seqno:1
  with
  | Error reason -> Testkit.check_string "refused" "unknown public key" reason
  | Ok (user, _) -> Alcotest.fail ("mapped to " ^ user)

let test_fhcrypt_alloc () =
  let f = Fhcrypt.of_prng (Prng.create [ "fhcrypt-alloc" ]) in
  let inner = String.make 40 'i' in
  let wire = Fhcrypt.encrypt f inner in
  Testkit.check_alloc_under "Fhcrypt.encrypt" ~bound:512 (fun () -> ignore (Fhcrypt.encrypt f inner));
  Testkit.check_alloc_under "Fhcrypt.decrypt" ~bound:512 (fun () -> ignore (Fhcrypt.decrypt f wire))

(* One 8 KB READ through the server, from the sealed request to the
   sealed reply, once the duplicate-request cache is full: the stored
   block is served as itself, marshaled into the session encoder,
   copied into the buffer of the entry the insert evicts, and sealed
   from there, so the one payload-sized allocation is the frame.  It
   reads 10,432 B; copying the data out of Memfs and out of the
   encoder as well cost about 27 KB. *)
let test_server_read_alloc () =
  let rng = Prng.create [ "server-read-alloc" ] in
  let net = Simnet.create (Simclock.create ()) in
  let _c = Simnet.add_host net "client.example.com" in
  let temp_key = Rabin.generate ~bits:512 rng in
  let s = raw_connect net rng ~temp_key (raw_server net rng "alloc.example.com") in
  let call ~proc enc v = raw_exchange s (raw_request s ~proc (Xdr.encode enc v)) in
  let pub = raw_handle (call ~proc:Nfs_proto.proc_lookup Nfs_proto.enc_diropargs (raw_root s, "pub")) in
  let f = raw_handle (call ~proc:Nfs_proto.proc_create Nfs_proto.enc_create_args (pub, "f", 0o666)) in
  ignore (call ~proc:Nfs_proto.proc_write Nfs_proto.enc_write_args (f, 0, true, pattern 8192));
  let read () =
    Channel.seal s.r_chan
      (raw_request s ~proc:Nfs_proto.proc_read (Xdr.encode Nfs_proto.enc_read_args (f, 0, 8192)))
  in
  (* More READs than the cache holds: every later insert evicts an
     8 KB entry whose buffer it takes over. *)
  for _ = 1 to 600 do
    ignore (raw_open s (Simnet.inject s.r_conn (read ())))
  done;
  let wire = read () in
  let reply = ref "" in
  Testkit.check_alloc_under "8 KB READ through the server" ~bound:13_520 (fun () ->
      reply := Simnet.inject s.r_conn wire);
  match Xdr.run (raw_results (raw_open s !reply)) (Nfs_proto.dec_res Nfs_proto.dec_read_ok) with
  | Ok (Ok (got, _, _)) -> Testkit.check_string "read back" (pattern 8192) got
  | _ -> Alcotest.fail "read failed"

(* The duplicate-request cache under buffer reuse: more than 600 8 KB
   READs interleaved with CREATEs and WRITEs, so that most inserts take
   over an evicted entry's buffer.  A retransmission of any live xid
   replays the reply it first got, byte for byte, also after further
   inserts have reused buffers; an evicted xid executes again. *)
let test_drc_recycling () =
  let rng = Prng.create [ "drc-recycling" ] in
  let clock = Simclock.create () in
  let net = Simnet.create clock in
  let _c = Simnet.add_host net "client.example.com" in
  let temp_key = Rabin.generate ~bits:512 rng in
  let obs = Obs.create ~now_us:(fun () -> Simclock.now_us clock) () in
  let server = raw_server ~obs net rng "drc.example.com" in
  let s = raw_connect net rng ~temp_key server in
  let call ~proc enc v = raw_exchange s (raw_request s ~proc (Xdr.encode enc v)) in
  let pub = raw_handle (call ~proc:Nfs_proto.proc_lookup Nfs_proto.enc_diropargs (raw_root s, "pub")) in
  let f = raw_handle (call ~proc:Nfs_proto.proc_create Nfs_proto.enc_create_args (pub, "f", 0o666)) in
  for b = 0 to 3 do
    ignore (call ~proc:Nfs_proto.proc_write Nfs_proto.enc_write_args (f, b * 8192, true, pattern (8192 + b)))
  done;
  (* Every request sent, with the digest of the reply it got. *)
  let sent = ref [] in
  let send ~proc enc v =
    let req = raw_request s ~proc (Xdr.encode enc v) in
    sent := (req, Sha1.digest (raw_exchange s req)) :: !sent
  in
  let step i =
    if i mod 10 = 0 then
      send ~proc:Nfs_proto.proc_create Nfs_proto.enc_create_args (pub, Printf.sprintf "c%d" i, 0o666)
    else if i mod 7 = 0 then
      send ~proc:Nfs_proto.proc_write Nfs_proto.enc_write_args (f, (i mod 4) * 8192, true, pattern (8192 + (i mod 4)))
    else send ~proc:Nfs_proto.proc_read Nfs_proto.enc_read_args (f, (i mod 4) * 8192, 8192)
  in
  for i = 1 to 640 do
    step i
  done;
  let hits () = Obs.counter obs "recover.retransmit_hit" in
  let inserts () = Obs.counter obs "server.drc_insert" in
  Testkit.check_int "cache full" 512 (Server.drc_entries server);
  Testkit.check_bool "buffers recycled" true (Obs.counter obs "server.drc_evict" > 100);
  (* Replay every live entry: the newest 512 requests. *)
  let live () = List.filteri (fun i _ -> i < 512) !sent in
  let replay_all label =
    let h0 = hits () and i0 = inserts () in
    List.iter
      (fun (req, digest) -> Testkit.check_string label digest (Sha1.digest (raw_exchange s req)))
      (live ());
    Testkit.check_int (label ^ ": all replayed") (h0 + 512) (hits ());
    Testkit.check_int (label ^ ": nothing inserted") i0 (inserts ())
  in
  replay_all "replay before reuse";
  (* Fifty more READs evict fifty entries and take over their buffers;
     no live entry's bytes may change. *)
  for i = 641 to 690 do
    step (if i mod 10 = 0 || i mod 7 = 0 then 1 else i)
  done;
  replay_all "replay after reuse";
  (* The oldest request was evicted long ago: it executes again. *)
  let oldest, _ = List.nth !sent (List.length !sent - 1) in
  let h0 = hits () and i0 = inserts () in
  ignore (raw_exchange s oldest);
  Testkit.check_int "evicted: no replay" h0 (hits ());
  Testkit.check_int "evicted: executed and cached" (i0 + 1) (inserts ())

(* One serial 4 KB READ through the SFS client, from the cache miss to
   the returned data: seal, the exchange, the reply opened in the
   channel's frame buffer, the results copied out of it and decoded,
   and the cache fill.  Opening replies as a string and copying the
   results out cost 42,680 B here, and decoding in place 38,576 B,
   later 34,240 B.  Sealing each request from the encoder, with the
   server serving the stored block and reusing evicted reply buffers,
   read 29,968 B, and 29,584 B once the server stopped copying
   handles.  Opening into the reused buffer on both ends, the server
   decoding the request where it lies, and the cache keeping a
   one-block read as the string it returns reads 25,328 B. *)
let test_client_read_alloc () =
  let w = Sfs_workload.Stacks.make ~rpc_window:1 ~readahead:0 Sfs_workload.Stacks.Sfs in
  let path = w.Sfs_workload.Stacks.workdir ^ "/small" in
  let cred = w.Sfs_workload.Stacks.cred in
  Sfs_workload.Driver.write_file w path (pattern 4096);
  Sfs_workload.Driver.commit w path;
  let m = List.hd (Client.mounts (Option.get w.Sfs_workload.Stacks.sfs_client)) in
  let ops = Client.ops m in
  let fh =
    match Vfs.resolve w.Sfs_workload.Stacks.vfs cred path with
    | Ok (_, fh) -> fh
    | Error e -> Alcotest.failf "resolve: %s" (Vfs.verror_to_string e)
  in
  let got = ref "" in
  let read () =
    match ops.Fs_intf.fs_read cred fh ~off:0 ~count:4096 with
    | Ok (data, _, _) -> got := data
    | Error e -> Alcotest.failf "read: %s" (Nfs_types.status_to_string e)
  in
  (* The first read grows the mount's encoder and the cache's tables. *)
  Sfs_nfs.Cachefs.invalidate_all (Client.cache m);
  read ();
  Sfs_nfs.Cachefs.invalidate_all (Client.cache m);
  Testkit.check_alloc_under "serial 4 KB READ through the client" ~bound:37_460 read;
  Testkit.check_string "read back" (pattern 4096) !got

(* --- The readahead read path: one data string per READ --- *)

module Stacks = Sfs_workload.Stacks
module Driver = Sfs_workload.Driver

let block = 8192

(* An SFS world at window 16 and readahead 16 holding a [blocks]-block
   file of seeded bytes, committed, with the client's cache emptied.
   [tap], when given, carries every client connection: the primed mount
   is dropped and the file system remounted under it. *)
let readahead_file ?tap ~(blocks : int) () =
  let w = Stacks.make ~rpc_window:16 ~readahead:16 Stacks.Sfs in
  let client = Option.get w.Stacks.sfs_client in
  (match tap with
  | None -> ()
  | Some tap ->
      List.iter (Client.unmount client) (Client.mounts client);
      Simnet.set_default_tap w.Stacks.net (Some tap));
  let path = w.Stacks.workdir ^ "/seq" in
  let data = Driver.content ~seed:34 (blocks * block) in
  Driver.write_file w path data;
  Driver.commit w path;
  let m = List.hd (Client.mounts client) in
  let fh =
    match Vfs.resolve w.Stacks.vfs w.Stacks.cred path with
    | Ok (_, fh) -> fh
    | Error e -> Alcotest.failf "resolve: %s" (Vfs.verror_to_string e)
  in
  Sfs_nfs.Cachefs.invalidate_all (Client.cache m);
  let ops = Client.ops m in
  let read b =
    match ops.Fs_intf.fs_read w.Stacks.cred fh ~off:(b * block) ~count:block with
    | Ok (d, _, _) -> d
    | Error e -> Alcotest.failf "read block %d: %s" b (Nfs_types.status_to_string e)
  in
  let expect b = String.sub data (b * block) block in
  (w, read, expect)

(* Warmed aligned 8 KB sequential hits: every read claims a prefetched
   block and tops the window up with one more READ, client and server
   together, with the world's spans and critical-path samples recorded.
   Opening each reply into a detached frame and copying every read out
   of the cached view cost 43,619 B per read here; opening into the
   channel's own buffer, decoding the data once and serving the cached
   block as itself reads 34,379 B. *)
let test_readahead_read_alloc () =
  let w, read, expect = readahead_file ~blocks:256 () in
  (* Arm readahead and grow the frame buffers, the mux queue and the
     cache's tables. *)
  for b = 0 to 63 do
    ignore (read b)
  done;
  let hits () = Obs.counter w.Stacks.obs "cache.read.hit" in
  let h0 = hits () and n = 128 in
  let got = ref "" in
  let bytes =
    Testkit.alloc_bytes (fun () ->
        for b = 64 to 64 + n - 1 do
          got := read b
        done)
  in
  Testkit.check_int "every read a hit" n (hits () - h0);
  Testkit.check_string "last block" (expect (64 + n - 1)) !got;
  if bytes / n > 36_000 then
    Alcotest.failf "one readahead READ allocated %d B, bound 36,000 B" (bytes / n)

(* A read of exactly one cached block returns the stored string itself,
   whether readahead or a serial miss filled it. *)
let test_cached_block_itself () =
  let _, read, expect = readahead_file ~blocks:32 () in
  let serial = read 0 in
  for b = 1 to 15 do
    ignore (read b)
  done;
  let first = read 20 in
  let second = read 20 in
  Testkit.check_string "readahead block" (expect 20) first;
  Testkit.check_bool "readahead block served as itself" true (first == second);
  Testkit.check_string "serial block" (expect 0) serial;
  Testkit.check_bool "serial block served as itself" true (serial == read 0)

(* Every readahead reply is opened into the channel's one reused frame
   buffer, so a block that kept a view into it would change under later
   replies.  Read 64 blocks with 16 in flight, then read every block
   back out of the cache. *)
let test_readahead_borrow () =
  let w, read, expect = readahead_file ~blocks:64 () in
  for b = 0 to 63 do
    Testkit.check_string (Printf.sprintf "block %d" b) (expect b) (read b)
  done;
  let hits () = Obs.counter w.Stacks.obs "cache.read.hit" in
  let sent () = Obs.counter w.Stacks.obs "channel.client.sent" in
  let h0 = hits () and s0 = sent () in
  for b = 0 to 63 do
    Testkit.check_string (Printf.sprintf "cached block %d" b) (expect b) (read b)
  done;
  Testkit.check_int "every re-read a hit" 64 (hits () - h0);
  Testkit.check_int "no call sent" 0 (sent () - s0)

(* Flip a bit in the MAC tags of the readahead reply carrying block 11
   and of the pipelined refetch its failed claim sends: neither opens,
   the block is never cached from them, and the read of block 11 falls
   back to the serial path, whose reply is intact. *)
let test_tampered_readahead () =
  let tap = Simnet.passive_tap () in
  let w, read, expect = readahead_file ~tap ~blocks:32 () in
  let big = ref 0 and tamper = ref [] in
  tap.Simnet.on_message <-
    (fun dir msg ->
      if dir = Simnet.To_client && String.length msg > block then begin
        incr big;
        if List.mem !big !tamper then begin
          let b = Bytes.of_string msg in
          let i = Bytes.length b - 1 in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
          Simnet.Replace (Bytes.to_string b)
        end
        else Simnet.Pass
      end
      else Simnet.Pass);
  let counter = Obs.counter w.Stacks.obs in
  (* Blocks 0-7 are serial READs; the ninth read submits block 8 and
     tops up blocks 9-24, so block 11 is the twelfth 8 KB reply, and
     the reads of blocks 9 and 10 top up one block each. *)
  tamper := [ 12 ];
  for b = 0 to 10 do
    Testkit.check_string (Printf.sprintf "block %d" b) (expect b) (read b)
  done;
  Testkit.check_int "tampered reply sent" 27 !big;
  Testkit.check_int "its exchange failed" 1 (counter "mux.fail");
  let miss0 = counter "cache.read.miss" and fail0 = counter "mux.fail" in
  let submit0 = counter "mux.submit" and sent0 = counter "channel.client.sent" in
  tamper := [ !big + 1 ];
  let got = read 11 in
  Testkit.check_string "block 11 recovered" (expect 11) got;
  Testkit.check_int "block 11 missed the cache" 1 (counter "cache.read.miss" - miss0);
  Testkit.check_int "the refetch failed" 1 (counter "mux.fail" - fail0);
  (* The refetch and one top-up rode the readahead mux; the recovering
     READ is the one serial call. *)
  Testkit.check_int "readahead submits" 2 (counter "mux.submit" - submit0);
  Testkit.check_int "one serial call" 3 (counter "channel.client.sent" - sent0);
  Testkit.check_bool "recovered block cached as itself" true (read 11 == got);
  for b = 12 to 31 do
    Testkit.check_string (Printf.sprintf "block %d" b) (expect b) (read b)
  done

let suite =
  ( "core",
    [
      Alcotest.test_case "pathname roundtrip" `Quick test_pathname_roundtrip;
      Alcotest.test_case "file handle crypto" `Quick test_fhcrypt;
      Alcotest.test_case "file handle byte pin" `Quick test_fhcrypt_pin;
      Alcotest.test_case "server reply byte pin" `Quick test_server_reply_pin;
      Alcotest.test_case "server lease points" `Quick test_server_lease_points;
      Alcotest.test_case "server callback order" `Quick test_server_callback_order;
      Alcotest.test_case "server forged handles" `Quick test_server_forged_handles;
      Alcotest.test_case "server denies a replayed auth request" `Quick test_auth_replay_denied;
      Alcotest.test_case "file handle allocation" `Quick test_fhcrypt_alloc;
      Alcotest.test_case "server read allocation" `Quick test_server_read_alloc;
      Alcotest.test_case "drc buffer recycling" `Quick test_drc_recycling;
      Alcotest.test_case "client read allocation" `Quick test_client_read_alloc;
      Alcotest.test_case "readahead read allocation" `Quick test_readahead_read_alloc;
      Alcotest.test_case "cached block served as itself" `Quick test_cached_block_itself;
      Alcotest.test_case "readahead borrow safety" `Quick test_readahead_borrow;
      Alcotest.test_case "tampered readahead reply" `Quick test_tampered_readahead;
      Alcotest.test_case "revocation certs" `Quick test_revocation;
      Alcotest.test_case "end-to-end read/write" `Quick test_end_to_end_rw;
      Alcotest.test_case "wrong hostid rejected" `Quick test_wrong_hostid_rejected;
      Alcotest.test_case "anonymous vs authenticated" `Quick test_anonymous_vs_authenticated;
      Alcotest.test_case "/sfs per-user view" `Quick test_sfs_dir_per_user_view;
      Alcotest.test_case "agent and secure links" `Quick test_agent_links_and_secure_links;
      Alcotest.test_case "symlink loops" `Quick test_symlink_loop_detected;
      Alcotest.test_case "server revocation" `Quick test_revoked_server_blocks_mount;
      Alcotest.test_case "agent revocation/blocking" `Quick test_agent_revocation_and_blocking;
      Alcotest.test_case "sfskey password flow" `Quick test_sfskey_password_flow;
      Alcotest.test_case "sfskey travelling user" `Quick test_sfskey_agent_integration;
      Alcotest.test_case "handshake errors release their slot" `Quick test_handshake_errors;
      Alcotest.test_case "certification paths" `Quick test_certification_path;
      Alcotest.test_case "PKI gateway" `Quick test_pki_gateway;
      Alcotest.test_case "secure bookmarks" `Quick test_bookmark;
      Alcotest.test_case "keysplit roundtrip" `Quick test_keysplit_roundtrip;
      Alcotest.test_case "split-key agent" `Quick test_split_key_agent;
      Alcotest.test_case "proxy agent" `Quick test_proxy_agent;
      Alcotest.test_case "spliced authmsg denied" `Quick test_spliced_authmsg;
      Alcotest.test_case "vfs dotdot and relative links" `Quick test_vfs_dotdot_and_relative_links;
      Alcotest.test_case "vfs dotdot across mounts" `Quick test_vfs_dotdot_across_mount;
      Alcotest.test_case "ssu via agent mapping" `Quick test_ssu_maps_root_to_user_agent;
      Alcotest.test_case "agent hook ordering" `Quick test_agent_hook_ordering;
      Alcotest.test_case "srp connection misuse" `Quick test_srp_connection_protocol_errors;
      Alcotest.test_case "sfskey remote key change" `Quick test_sfskey_remote_key_change;
      Alcotest.test_case "anonymous access refused" `Quick test_no_anonymous_server;
      Alcotest.test_case "forwarding root after key change" `Quick test_forwarding_root;
      Alcotest.test_case "agent forgets keys" `Quick test_agent_forget_keys;
      Alcotest.test_case "agent removes a link" `Quick test_agent_remove_link;
      Alcotest.test_case "drc: a reused xid with other args runs" `Quick
        test_drc_reused_xid_other_args;
      Alcotest.test_case "drc: a reused xid as another user runs" `Quick
        test_drc_reused_xid_other_user;
      Alcotest.test_case "authserv refuses an unregistered key" `Quick test_authserv_unregistered_key;
      Alcotest.test_case "srp reflected payload refused" `Quick test_srp_reflected_payload;
    ] )
