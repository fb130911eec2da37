(* The adversary on the wire (paper section 2.1.2).

   "SFS assumes that malicious parties entirely control the network.
   Attackers can intercept packets, tamper with them, and inject new
   packets onto the network.  Under these assumptions, SFS ensures that
   attackers can do no worse than delay the file system's operation."

   This demo gives an attacker those powers over both protocols:

   - against plain NFS 3, the attacker silently corrupts data in
     flight, forges credentials, and reuses a sniffed file handle;
   - against SFS, every one of those moves either does nothing or kills
     the connection with an integrity failure — and a man in the middle
     who substitutes his own key fails the HostID check.

   Run with:  dune exec examples/attack_demo.exe *)

open Sfs_core
module Simos = Sfs_os.Simos
module Simclock = Sfs_net.Simclock
module Simnet = Sfs_net.Simnet
module Memfs = Sfs_nfs.Memfs
module Memfs_ops = Sfs_nfs.Memfs_ops
module Diskmodel = Sfs_nfs.Diskmodel
module Nfs_types = Sfs_nfs.Nfs_types
module Nfs_server = Sfs_nfs.Nfs_server
module Nfs_client = Sfs_nfs.Nfs_client
module Fs_intf = Sfs_nfs.Fs_intf
module Costmodel = Sfs_net.Costmodel
module Rabin = Sfs_crypto.Rabin
module Prng = Sfs_crypto.Prng

let step fmt = Printf.printf ("\n== " ^^ fmt ^^ "\n")
let attack fmt = Printf.printf ("  [attacker] " ^^ fmt ^^ "\n")
let outcome fmt = Printf.printf ("  --> " ^^ fmt ^^ "\n")

(* Flip one byte somewhere in the middle of a message. *)
let corrupt (msg : string) : string =
  if String.length msg < 40 then msg
  else begin
    let i = String.length msg / 2 in
    let b = Bytes.of_string msg in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
    Bytes.to_string b
  end

let () =
  let clock = Simclock.create () in
  let net = Simnet.create clock in
  let server_host = Simnet.add_host net "victim.example.com" in
  let _client = Simnet.add_host net "client.example.com" in
  let now () = Nfs_types.time_of_us (Simclock.now_us clock) in
  let rng = Prng.create [ "attack-demo" ] in
  let os = Simos.create () in
  let alice = Simos.add_user os "alice" in
  let alice_cred = Simos.cred_of_user alice in
  let root_cred = Simos.cred_of_user Simos.root_user in

  (* One backing file system, exported both ways. *)
  let fs = Memfs.create ~now () in
  ignore (Memfs.mkdir fs root_cred ~dir:Memfs.root_id "home" ~mode:0o777);
  let backend = Memfs_ops.make ~fs ~disk:(Diskmodel.create clock) in

  (* ---------------- Plain NFS 3 ---------------- *)
  step "Plain NFS 3: the attacker wins everywhere";
  let nfs_server = Nfs_server.create backend in
  Simnet.listen net server_host ~port:2049 (Nfs_server.service nfs_server);

  (* Alice stores a file over NFS while the attacker listens. *)
  let tap = Simnet.passive_tap () in
  Simnet.set_default_tap net (Some tap);
  let nfs, _ = Nfs_client.mount net ~from_host:"client.example.com" ~addr:"victim.example.com" ~proto:Costmodel.Udp ~cred:root_cred in
  let dir, _ =
    match nfs.Fs_intf.fs_lookup alice_cred ~dir:nfs.Fs_intf.fs_root "home" with
    | Ok v -> v
    | Error e -> failwith (Nfs_types.status_to_string e)
  in
  let f, _ =
    match nfs.Fs_intf.fs_create alice_cred ~dir "payroll" ~mode:0o600 with
    | Ok v -> v
    | Error e -> failwith (Nfs_types.status_to_string e)
  in
  ignore (nfs.Fs_intf.fs_write alice_cred f ~off:0 ~stable:true "salary: 100");
  Simnet.set_default_tap net None;

  attack "1. sniffed alice's file handle off the wire: %S" (String.sub f 0 (min 12 (String.length f)));
  attack "   and forges RPCs with alice's uid to read her 0600 file";
  let mallory_nfs, _ = Nfs_client.mount net ~from_host:"mallory.example.com" ~addr:"victim.example.com" ~proto:Costmodel.Udp ~cred:root_cred in
  let forged = { Simos.cred_uid = alice.Simos.uid; cred_gid = alice.Simos.gid; cred_groups = [] } in
  (match mallory_nfs.Fs_intf.fs_read forged f ~off:0 ~count:100 with
  | Ok (data, _, _) -> outcome "NFS hands over the secret: %S" data
  | Error e -> outcome "unexpected: %s" (Nfs_types.status_to_string e));

  attack "2. tampers with a read in flight (flips one byte)";
  let tamper_tap = Simnet.passive_tap () in
  tamper_tap.Simnet.on_message <-
    (fun dir msg -> if dir = Simnet.To_client then Simnet.Replace (corrupt msg) else Simnet.Pass);
  Simnet.set_default_tap net (Some tamper_tap);
  let victim_nfs, _ = Nfs_client.mount net ~from_host:"client.example.com" ~addr:"victim.example.com" ~proto:Costmodel.Udp ~cred:root_cred in
  Simnet.set_default_tap net (Some tamper_tap);
  (match victim_nfs.Fs_intf.fs_read alice_cred f ~off:0 ~count:100 with
  | Ok (data, _, _) -> outcome "alice reads silently corrupted data: %S" data
  | Error e -> outcome "read failed: %s" (Nfs_types.status_to_string e)
  | exception _ -> outcome "client crashed on corrupt reply");
  Simnet.set_default_tap net None;

  (* ---------------- SFS ---------------- *)
  step "SFS: the same attacker gets nothing";
  let server_key = Rabin.generate ~bits:512 rng in
  let authserv = Authserv.create rng in
  Authserv.add_user authserv ~user:"alice" ~cred:alice_cred;
  let alice_key = Rabin.generate ~bits:512 rng in
  (match Authserv.register_pubkey authserv ~user:"alice" alice_key.Rabin.pub with
  | Ok () -> ()
  | Error e -> failwith e);
  let server =
    Server.create net ~host:server_host ~location:"victim.example.com" ~key:server_key ~rng
      ~backend ~authserv ()
  in
  let path = Server.self_path server in

  let sfscd = Client.create net ~from_host:"client.example.com" ~rng () in
  let agent = Agent.create alice in
  Agent.add_key agent alice_key;
  let vfs =
    Vfs.make ~sfscd ~clock
      ~root_fs:(Memfs_ops.make ~fs:(Memfs.create ~now ()) ~disk:(Diskmodel.create clock))
      ()
  in
  Vfs.set_agent vfs ~uid:alice.Simos.uid agent;
  let secret_path = Pathname.to_string path ^ "/home/payroll-sfs" in
  (match Vfs.write_file vfs alice_cred secret_path "salary: 100" with
  | Ok () -> print_endline "  alice stores her file over SFS"
  | Error e -> failwith (Vfs.verror_to_string e));
  (match Vfs.chmod vfs alice_cred secret_path 0o600 with Ok () -> () | Error _ -> ());

  attack "1. connects and claims alice's uid (no key)";
  let mallory_cd = Client.create net ~from_host:"mallory.example.com" ~rng () in
  let mvfs =
    Vfs.make ~sfscd:mallory_cd ~clock
      ~root_fs:(Memfs_ops.make ~fs:(Memfs.create ~now ()) ~disk:(Diskmodel.create clock))
      ()
  in
  let mallory = { Simos.name = "mallory"; uid = alice.Simos.uid; gid = alice.Simos.gid; groups = [] } in
  let magent = Agent.create mallory in
  Agent.add_key magent (Rabin.generate ~bits:512 rng);
  Vfs.set_agent mvfs ~uid:mallory.Simos.uid magent;
  (match Vfs.read_file mvfs (Simos.cred_of_user mallory) secret_path with
  | Error e -> outcome "denied: %s (credentials come from signatures, not uid claims)" (Vfs.verror_to_string e)
  | Ok _ -> outcome "BROKEN: SFS leaked the file");

  attack "2. tampers with SFS traffic in flight";
  let sfs_tap = Simnet.passive_tap () in
  let armed = ref false in
  sfs_tap.Simnet.on_message <-
    (fun dir msg -> if !armed && dir = Simnet.To_client then Simnet.Replace (corrupt msg) else Simnet.Pass);
  Simnet.set_default_tap net (Some sfs_tap);
  let victim_cd = Client.create net ~from_host:"client.example.com" ~rng () in
  let vvfs =
    Vfs.make ~sfscd:victim_cd ~clock
      ~root_fs:(Memfs_ops.make ~fs:(Memfs.create ~now ()) ~disk:(Diskmodel.create clock))
      ()
  in
  Vfs.set_agent vvfs ~uid:alice.Simos.uid agent;
  (* Let the mount complete untouched, then arm the tamper. *)
  (match Vfs.stat vvfs alice_cred secret_path with Ok _ -> () | Error _ -> ());
  armed := true;
  (match Vfs.read_file vvfs alice_cred secret_path with
  | Ok data -> outcome "BROKEN: accepted tampered data %S" data
  | Error e -> outcome "rejected, connection dead: %s" (Vfs.verror_to_string e)
  | exception Sfs_nfs.Nfs_client.Rpc_failure reason ->
      outcome "MAC failure: tampering detected (%s), connection torn down" reason);
  armed := false;
  Simnet.set_default_tap net None;

  attack "3. man-in-the-middle substitutes his own public key at mount";
  let mitm_key = Rabin.generate ~bits:512 rng in
  let mitm_tap = Simnet.passive_tap () in
  mitm_tap.Simnet.on_message <-
    (fun dir msg ->
      if dir = Simnet.To_client then
        (* Replace any served public key with the attacker's. *)
        match Sfs_xdr.Xdr.run msg Sfs_proto.Keyneg.dec_connect_res with
        | Ok (Sfs_proto.Keyneg.Connect_ok _) ->
            Simnet.Replace
              (Sfs_xdr.Xdr.encode Sfs_proto.Keyneg.enc_connect_res
                 (Sfs_proto.Keyneg.Connect_ok { pubkey = mitm_key.Rabin.pub }))
        | _ -> Simnet.Pass
      else Simnet.Pass);
  Simnet.set_default_tap net (Some mitm_tap);
  let fresh_cd = Client.create net ~from_host:"client.example.com" ~rng () in
  (match Client.mount fresh_cd path with
  | Error (Client.Negotiation_failed reason) -> outcome "mount refused: %s" reason
  | Error e -> outcome "mount refused: %s" (Client.mount_error_to_string e)
  | Ok _ -> outcome "BROKEN: mounted through the MITM");
  Simnet.set_default_tap net None;

  attack "4. replays a recorded encrypted message";
  let replay_tap = Simnet.passive_tap () in
  Simnet.set_default_tap net (Some replay_tap);
  let replay_cd = Client.create net ~from_host:"client.example.com" ~rng () in
  let rvfs =
    Vfs.make ~sfscd:replay_cd ~clock
      ~root_fs:(Memfs_ops.make ~fs:(Memfs.create ~now ()) ~disk:(Diskmodel.create clock))
      ()
  in
  Vfs.set_agent rvfs ~uid:alice.Simos.uid agent;
  (match Vfs.write_file rvfs alice_cred (Pathname.to_string path ^ "/home/ledger") "balance: 5" with
  | Ok () -> ()
  | Error e -> failwith (Vfs.verror_to_string e));
  Simnet.set_default_tap net None;
  (match Client.mount replay_cd path with
  | Ok m -> (
      let conn = (fun (m : Client.mount) -> m) m in
      ignore conn;
      (* Take the last recorded client->server ciphertext and re-deliver
         it via the adversary's raw injection. *)
      match
        List.find_opt (fun (d, _) -> d = Simnet.To_server) replay_tap.Simnet.observed
      with
      | Some (_, recorded) -> (
          match Client.inject_raw m recorded with
          | Ok _ -> outcome "BROKEN: server accepted a replay"
          | Error reason -> outcome "server rejected the replay: %s" reason)
      | None -> outcome "(nothing recorded)")
  | Error e -> outcome "%s" (Client.mount_error_to_string e));
  print_endline "\nDone: every SFS attack degraded to denial of service at worst.";
  ignore nfs_server
