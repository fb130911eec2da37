(* sfs-demo — a command-line tour of the SFS reproduction.

   Subcommands:

     keygen     generate a Rabin key pair and print its fingerprint
     hostid     compute the self-certifying pathname for a location/key
     tour       run a scripted multi-server demonstration
     shell      an interactive shell over a simulated SFS deployment

   Everything runs inside the simulated world (network, disks, users);
   see DESIGN.md for what is simulated and why. *)

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
module Hostid = Sfs_proto.Hostid

let make_rng = function
  | Some seed -> Prng.create [ "sfs-demo"; seed ]
  | None -> Prng.default ()

(* --- keygen --- *)

let keygen bits seed =
  let rng = make_rng seed in
  let key = Rabin.generate ~bits rng in
  Printf.printf "generated a %d-bit Rabin-Williams key pair\n" bits;
  Printf.printf "public key fingerprint (SHA-1): %s\n"
    (Sfs_util.Hex.encode (Rabin.pub_fingerprint key.Rabin.pub));
  Printf.printf "public key: %d bytes, private key: %d bytes (serialized)\n"
    (String.length (Rabin.pub_to_string key.Rabin.pub))
    (String.length (Rabin.priv_to_string key));
  0

(* --- hostid --- *)

let hostid location bits seed =
  let rng = make_rng seed in
  let key = Rabin.generate ~bits rng in
  let path = Pathname.of_server ~location ~pubkey:key.Rabin.pub in
  Printf.printf "Location:  %s\n" location;
  Printf.printf "HostID:    %s\n" (Hostid.to_base32 (Pathname.hostid path));
  Printf.printf "Pathname:  %s\n" (Pathname.to_string path);
  print_endline "\nAnyone can do this: no authority was consulted (paper section 2.1.3).";
  0

(* --- the demo world shared by tour and shell --- *)

type world = {
  clock : Simclock.t;
  vfs : Vfs.t;
  alice : Simos.user;
  agent : Agent.t;
  servers : (string * Server.t) list;
}

let build_world seed =
  let rng = make_rng (Some (Option.value seed ~default:"tour")) in
  let clock = Simclock.create () in
  let net = Simnet.create clock in
  let now () = Nfs_types.time_of_us (Simclock.now_us clock) in
  let os = Simos.create () in
  let alice = Simos.add_user os "alice" in
  let alice_key = Rabin.generate ~bits:512 rng in
  let root_cred = Simos.cred_of_user Simos.root_user in
  let mk_server location =
    let host = Simnet.add_host net location in
    let fs = Memfs.create ~now () in
    ignore (Memfs.mkdir fs root_cred ~dir:Memfs.root_id "pub" ~mode:0o777);
    let key = Rabin.generate ~bits:512 rng in
    let authserv = Authserv.create rng in
    Authserv.add_user authserv ~user:"alice" ~cred:(Simos.cred_of_user alice);
    (match Authserv.register_pubkey authserv ~user:"alice" alice_key.Rabin.pub with
    | Ok () -> ()
    | Error e -> failwith e);
    Server.create net ~host ~location ~key ~rng
      ~backend:(Memfs_ops.make ~fs ~disk:(Diskmodel.create clock)) ~authserv ()
  in
  let servers =
    List.map (fun l -> (l, mk_server l)) [ "files.mit.edu"; "archive.example.org" ]
  in
  ignore (Simnet.add_host net "laptop");
  let sfscd = Client.create net ~from_host:"laptop" ~rng () in
  let client_fs = Memfs.create ~now () in
  (match
     Memfs.setattr client_fs root_cred Memfs.root_id
       { Nfs_types.sattr_empty with Nfs_types.set_mode = Some 0o777 }
   with
  | Ok _ -> ()
  | Error _ -> ());
  let vfs =
    Vfs.make ~sfscd ~clock ~root_fs:(Memfs_ops.make ~fs:client_fs ~disk:(Diskmodel.create clock)) ()
  in
  let agent = Agent.create ~now_us:(fun () -> Simclock.now_us clock) alice in
  Agent.add_key agent alice_key;
  Vfs.set_agent vfs ~uid:alice.Simos.uid agent;
  List.iter
    (fun (l, s) -> Agent.add_link agent ~name:l ~target:(Pathname.to_string (Server.self_path s)))
    servers;
  { clock; vfs; alice; agent; servers }

(* --- tour --- *)

let tour seed =
  let w = build_world seed in
  let cred = Simos.cred_of_user w.alice in
  print_endline "A simulated deployment with two SFS servers:";
  List.iter
    (fun (_, s) -> Printf.printf "    %s\n" (Pathname.to_string (Server.self_path s)))
    w.servers;
  print_endline "\nalice's agent links them under human-readable names:";
  List.iter (fun (name, target) -> Printf.printf "    /sfs/%s -> %s\n" name target) (Agent.links w.agent);
  let file = "/sfs/files.mit.edu/pub/motd" in
  (match Vfs.write_file w.vfs cred file "self-certifying pathnames at work\n" with
  | Ok () -> Printf.printf "\nwrote %s\n" file
  | Error e -> failwith (Vfs.verror_to_string e));
  (match Vfs.read_file w.vfs cred file with
  | Ok s -> Printf.printf "read back: %s" s
  | Error e -> failwith (Vfs.verror_to_string e));
  (match Vfs.symlink w.vfs cred ~target:"/sfs/archive.example.org/pub" "/sfs/files.mit.edu/pub/mirror"
   with
  | Ok () -> print_endline "created a secure link between the two servers"
  | Error e -> failwith (Vfs.verror_to_string e));
  (match Vfs.readdir w.vfs cred "/sfs/files.mit.edu/pub/mirror" with
  | Ok _ -> print_endline "followed it across administrative realms transparently"
  | Error e -> failwith (Vfs.verror_to_string e));
  Printf.printf "\nsimulated time spent: %.1f ms\n" (Simclock.now_us w.clock /. 1000.0);
  Printf.printf "agent audit trail: %d private-key operations\n"
    (List.length (Agent.audit_trail w.agent));
  0

(* --- shell --- *)

let shell_help () =
  print_endline
    "commands:\n\
    \  ls [path]        list a directory (try: ls /sfs)\n\
    \  cat <path>       print a file\n\
    \  echo <text> > <path>   write a file\n\
    \  mkdir <path>     create a directory\n\
    \  ln -s <target> <path>  create a symlink\n\
    \  stat <path>      show attributes\n\
    \  rm <path>        remove a file\n\
    \  time             show simulated time\n\
    \  help             this text\n\
    \  quit             leave"

let shell seed =
  let w = build_world seed in
  let cred = Simos.cred_of_user w.alice in
  print_endline "sfs-demo interactive shell (user: alice).  'help' for commands.";
  print_endline "Servers reachable as /sfs/files.mit.edu and /sfs/archive.example.org";
  let report = function
    | Ok () -> ()
    | Error e -> Printf.printf "error: %s\n" (Vfs.verror_to_string e)
  in
  let rec loop () =
    print_string "sfs> ";
    match In_channel.input_line stdin with
    | None -> 0
    | Some line -> (
        let words = String.split_on_char ' ' (String.trim line) |> List.filter (fun s -> s <> "") in
        (match words with
        | [] -> ()
        | [ "quit" ] | [ "exit" ] -> raise Exit
        | [ "help" ] -> shell_help ()
        | [ "time" ] -> Printf.printf "%.3f ms simulated\n" (Simclock.now_us w.clock /. 1000.0)
        | [ "ls" ] | [ "ls"; "/" ] -> (
            match Vfs.readdir w.vfs cred "/" with
            | Ok names -> List.iter print_endline names
            | Error e -> Printf.printf "error: %s\n" (Vfs.verror_to_string e))
        | [ "ls"; path ] -> (
            match Vfs.readdir w.vfs cred path with
            | Ok names -> List.iter print_endline names
            | Error e -> Printf.printf "error: %s\n" (Vfs.verror_to_string e))
        | [ "cat"; path ] -> (
            match Vfs.read_file w.vfs cred path with
            | Ok s ->
                print_string s;
                if s = "" || s.[String.length s - 1] <> '\n' then print_newline ()
            | Error e -> Printf.printf "error: %s\n" (Vfs.verror_to_string e))
        | [ "mkdir"; path ] -> report (Vfs.mkdir w.vfs cred path)
        | [ "rm"; path ] -> report (Vfs.unlink w.vfs cred path)
        | [ "ln"; "-s"; target; path ] -> report (Vfs.symlink w.vfs cred ~target path)
        | [ "stat"; path ] -> (
            match Vfs.stat w.vfs cred path with
            | Ok a ->
                Printf.printf "type=%s mode=%o uid=%d size=%d lease=%ds\n"
                  (match a.Nfs_types.ftype with
                  | Nfs_types.NF_REG -> "file"
                  | Nfs_types.NF_DIR -> "dir"
                  | Nfs_types.NF_LNK -> "symlink")
                  a.Nfs_types.mode a.Nfs_types.uid a.Nfs_types.size a.Nfs_types.lease
            | Error e -> Printf.printf "error: %s\n" (Vfs.verror_to_string e))
        | "echo" :: rest -> (
            match String.index_opt (String.concat " " rest) '>' with
            | Some _ -> (
                let joined = String.concat " " rest in
                match String.split_on_char '>' joined with
                | [ text; path ] ->
                    report (Vfs.write_file w.vfs cred (String.trim path) (String.trim text ^ "\n"))
                | _ -> print_endline "usage: echo <text> > <path>")
            | None -> print_endline (String.concat " " rest))
        | cmd :: _ -> Printf.printf "unknown command %S ('help' lists commands)\n" cmd);
        loop ())
  in
  (try loop () with Exit -> 0)

(* --- cmdliner wiring --- *)

open Cmdliner

let seed_arg =
  let doc = "Deterministic seed for key generation (reproducible output)." in
  Arg.(value & opt (some string) None & info [ "seed" ] ~docv:"SEED" ~doc)

let bits_arg =
  let doc = "Rabin modulus size in bits." in
  Arg.(value & opt int 1024 & info [ "bits" ] ~docv:"BITS" ~doc)

let keygen_cmd =
  let doc = "generate a Rabin-Williams key pair" in
  Cmd.v (Cmd.info "keygen" ~doc) Term.(const keygen $ bits_arg $ seed_arg)

let hostid_cmd =
  let doc = "compute a self-certifying pathname for a location" in
  let location =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"LOCATION" ~doc:"DNS name or IP address of the server.")
  in
  Cmd.v (Cmd.info "hostid" ~doc) Term.(const hostid $ location $ bits_arg $ seed_arg)

let tour_cmd =
  let doc = "run a scripted multi-server demonstration" in
  Cmd.v (Cmd.info "tour" ~doc) Term.(const tour $ seed_arg)

let shell_cmd =
  let doc = "interactive shell over a simulated SFS deployment" in
  Cmd.v (Cmd.info "shell" ~doc) Term.(const shell $ seed_arg)

let main =
  let doc = "a tour of the SFS (SOSP '99) reproduction" in
  Cmd.group (Cmd.info "sfs-demo" ~doc ~version:"1.0.0") [ keygen_cmd; hostid_cmd; tour_cmd; shell_cmd ]

let () = exit (Cmd.eval' main)
