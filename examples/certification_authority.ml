(* Certification authorities as file systems (paper sections 2.4, 3.2).

   "SFS certification authorities are nothing more than ordinary file
   systems serving symbolic links."  This example builds a Verisign-like
   CA: a file system of symlinks from human names to self-certifying
   pathnames, published as a signed read-only snapshot so that

     - serving requires no on-line private key,
     - replicas can run on untrusted machines,
     - cryptographic cost is proportional to the CA's size and rate of
       change, not to the number of clients.

   Clients install one link to the CA ("manual key distribution") and a
   certification path, and from then on refer to servers by
   /sfs/verisign/<name>.

   Run with:  dune exec examples/certification_authority.exe *)

open Sfs_core
module Simos = Sfs_os.Simos
module Simclock = Sfs_net.Simclock
module Simnet = Sfs_net.Simnet
module Memfs = Sfs_nfs.Memfs
module Memfs_ops = Sfs_nfs.Memfs_ops
module Diskmodel = Sfs_nfs.Diskmodel
module Nfs_types = Sfs_nfs.Nfs_types
module Rabin = Sfs_crypto.Rabin
module Prng = Sfs_crypto.Prng

let step fmt = Printf.printf ("\n== " ^^ fmt ^^ "\n")

let make_file_server net clock rng ~host_name ~user ~user_key =
  let host = Simnet.add_host net host_name in
  let now () = Nfs_types.time_of_us (Simclock.now_us clock) in
  let fs = Memfs.create ~now () in
  let root_cred = Simos.cred_of_user Simos.root_user in
  ignore (Memfs.mkdir fs root_cred ~dir:Memfs.root_id "pub" ~mode:0o777);
  let key = Rabin.generate ~bits:512 rng in
  let authserv = Authserv.create rng in
  Authserv.add_user authserv ~user:user.Simos.name ~cred:(Simos.cred_of_user user);
  (match Authserv.register_pubkey authserv ~user:user.Simos.name user_key.Rabin.pub with
  | Ok () -> ()
  | Error e -> failwith e);
  let server =
    Server.create net ~host ~location:host_name ~key ~rng
      ~backend:(Memfs_ops.make ~fs ~disk:(Diskmodel.create clock)) ~authserv ()
  in
  (server, fs)

let () =
  let clock = Simclock.create () in
  let net = Simnet.create clock in
  let _client_host = Simnet.add_host net "desk.example.com" in
  let rng = Prng.create [ "ca-example" ] in
  let os = Simos.create () in
  let alice = Simos.add_user os "alice" in
  let alice_key = Rabin.generate ~bits:512 rng in

  step "Three ordinary file servers come up independently";
  let srv_a, fs_a =
    make_file_server net clock rng ~host_name:"alpha.example.com" ~user:alice ~user_key:alice_key
  in
  let srv_b, _ =
    make_file_server net clock rng ~host_name:"beta.example.com" ~user:alice ~user_key:alice_key
  in
  let srv_c, _ =
    make_file_server net clock rng ~host_name:"gamma.example.com" ~user:alice ~user_key:alice_key
  in
  List.iter
    (fun s -> Printf.printf "    %s\n" (Pathname.to_string (Server.self_path s)))
    [ srv_a; srv_b; srv_c ];

  step "Verisign builds a CA file system: symlinks from names to pathnames";
  let now () = Nfs_types.time_of_us (Simclock.now_us clock) in
  let ca_fs =
    Keymgmt.build_ca_fs ~now
      [
        ("alpha", Server.self_path srv_a);
        ("beta", Server.self_path srv_b);
        ("gamma", Server.self_path srv_c);
      ]
  in
  let ca_host = Simnet.add_host net "verisign.example.com" in
  let ca_key = Rabin.generate ~bits:512 rng in
  let ca_authserv = Authserv.create rng in
  let ca_server =
    Server.create net ~host:ca_host ~location:"verisign.example.com" ~key:ca_key ~rng
      ~backend:(Memfs_ops.make ~fs:ca_fs ~disk:(Diskmodel.create clock)) ~authserv:ca_authserv ()
  in

  step "The CA snapshot is signed once and served read-only";
  let snapshot =
    Readonly.snapshot ~key:ca_key ~now_s:(Simclock.seconds clock) ca_fs
  in
  Server.serve_readonly ca_server snapshot;
  Printf.printf "snapshot: %d bytes of content-hashed objects, one Rabin signature\n"
    (Readonly.snapshot_size snapshot);

  step "A client installs the CA link and a certification path";
  let sfscd = Client.create net ~from_host:"desk.example.com" ~rng () in
  let client_fs = Memfs.create ~now () in
  (match
     Memfs.setattr client_fs (Simos.cred_of_user Simos.root_user) Memfs.root_id
       { Nfs_types.sattr_empty with Nfs_types.set_mode = Some 0o777 }
   with
  | Ok _ -> ()
  | Error _ -> ());
  let vfs =
    Vfs.make ~sfscd ~clock ~root_fs:(Memfs_ops.make ~fs:client_fs ~disk:(Diskmodel.create clock)) ()
  in
  let agent = Agent.create alice in
  Agent.add_key agent alice_key;
  Vfs.set_agent vfs ~uid:alice.Simos.uid agent;
  let cred = Simos.cred_of_user alice in

  (* Manual key distribution: one symlink on the local disk, installed
     by the administrator. *)
  (match Keymgmt.manual_link vfs cred ~link:"/verisign" (Server.self_path ca_server) with
  | Ok () -> ()
  | Error e -> failwith (Vfs.verror_to_string e));
  Printf.printf "/verisign -> %s\n" (Pathname.to_string (Server.self_path ca_server));

  (* The read-only CA mount: verified against the signed root. *)
  (match Client.mount_readonly sfscd (Server.self_path ca_server) with
  | Ok _ -> print_endline "mounted the CA with the read-only (signed) dialect"
  | Error e -> failwith (Client.mount_error_to_string e));

  (* The agent searches /verisign when a bare name appears under /sfs. *)
  Keymgmt.install_certification_path agent vfs [ "/verisign" ];
  print_endline "certification path: [ /verisign ]";

  step "Now servers are reachable by human-readable names";
  (match Vfs.write_file vfs cred "/sfs/alpha/pub/report.txt" "certified by a file system\n" with
  | Ok () -> print_endline "wrote /sfs/alpha/pub/report.txt"
  | Error e -> failwith (Vfs.verror_to_string e));
  (match Vfs.read_file vfs cred "/sfs/alpha/pub/report.txt" with
  | Ok s -> Printf.printf "read back: %s" s
  | Error e -> failwith (Vfs.verror_to_string e));
  (match Vfs.readdir vfs cred "/sfs/beta/pub" with
  | Ok _ -> print_endline "listed /sfs/beta/pub through the same certification path"
  | Error e -> failwith (Vfs.verror_to_string e));

  step "Unlisted names fail safely";
  (match Vfs.readdir vfs cred "/sfs/delta" with
  | Error _ -> print_endline "/sfs/delta: no certificate, no access — as expected"
  | Ok _ -> failwith "resolved an uncertified name!");

  step "Why read-only snapshots: count the CA's private-key operations";
  (* Many clients fetch; the server does no signing at all. *)
  let verifier_fetches = 50 in
  (try
     for i = 1 to verifier_fetches do
       let c2 = Client.create net ~from_host:"desk.example.com" ~rng () in
       match Client.mount_readonly c2 (Server.self_path ca_server) with
       | Ok _ -> ()
       | Error e -> failwith (Client.mount_error_to_string e ^ string_of_int i)
     done;
     Printf.printf "%d independent clients verified the snapshot; the CA signed exactly once.\n"
       verifier_fetches
   with Failure e -> print_endline ("fetch failed: " ^ e));

  (* Update the CA: a new snapshot, one new signature. *)
  ignore
    (Memfs.symlink ca_fs (Simos.cred_of_user Simos.root_user) ~dir:Memfs.root_id "alpha-mirror"
       ~target:(Pathname.to_string (Server.self_path srv_a)));
  let snapshot2 =
    Readonly.snapshot ~serial:2 ~key:ca_key ~now_s:(Simclock.seconds clock) ca_fs
  in
  Server.serve_readonly ca_server snapshot2;
  print_endline "CA updated: second snapshot, second signature — cost tracks change rate.";
  (* Stale fs_a warning silencer *)
  ignore fs_a;
  print_endline "Done."
