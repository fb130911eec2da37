(* Server key management techniques (paper section 2.4).

   None of these mechanisms lives inside the file system: each is a few
   lines over symbolic links, the /sfs namespace and the agent —
   exactly the paper's point.  "One can realize many key management
   schemes using only simple file utilities", and different schemes
   compose: a certification path can name a CA reached through a
   password-authenticated link, bootstrapping one mechanism with
   another. *)

module Simos = Sfs_os.Simos
module Memfs = Sfs_nfs.Memfs
module Rabin = Sfs_crypto.Rabin

(* --- Manual key distribution ---

   "If the administrators of a site want to install some server's
   public key on the local hard disk of every client, they can simply
   create a symbolic link to the appropriate self-certifying
   pathname." *)
let manual_link (vfs : Vfs.t) (cred : Simos.cred) ~(link : string) (path : Pathname.t) :
    (unit, Vfs.verror) result =
  Vfs.symlink vfs cred ~target:(Pathname.to_string path) link

(* --- Secure bookmarks ---

   The 10-line bookmark shell script: creates
   Location -> /sfs/Location:HostID in a bookmarks directory, so
   "cd Location" returns securely to any file system visited. *)
let bookmark (vfs : Vfs.t) (cred : Simos.cred) ~(bookmarks_dir : string) ~(cwd : string) :
    (string, Vfs.verror) result =
  match Vfs.realpath_mount vfs cred cwd with
  | Error e -> Error e
  | Ok self_cert ->
      let location =
        match Pathname.of_string self_cert with
        | Some (p, _) -> Pathname.location p
        | None -> "bookmark"
      in
      let link = bookmarks_dir ^ "/" ^ location in
      (* Refresh an existing bookmark. *)
      (match Vfs.unlink vfs cred link with Ok () | Error _ -> ());
      Result.map (fun () -> link) (Vfs.symlink vfs cred ~target:self_cert link)

(* --- Certification paths (section 2.4) ---

   "A user can give his agent a list of directories containing symbolic
   links ... When the user accesses a non-self-certifying pathname in
   /sfs, the agent maps the name by looking in each directory of the
   certification path in sequence."  Installed as an agent hook; the
   lookups go through the VFS with the user's own credentials, so a
   certification directory can itself live on SFS. *)
let install_certification_path (agent : Agent.t) (vfs : Vfs.t) (dirs : string list) : unit =
  let cred = Simos.cred_of_user (Agent.user agent) in
  Agent.add_hook agent ~name:"certification-path" (fun name ->
      List.find_map
        (fun dir ->
          match Vfs.readlink vfs cred (dir ^ "/" ^ name) with
          | Ok target -> Some target
          | Error _ -> (
              (* A plain file containing a pathname also works, so CA
                 file systems can publish either form. *)
              match Vfs.read_file vfs cred (dir ^ "/" ^ name) with
              | Ok contents when contents <> "" -> Some (String.trim contents)
              | _ -> None))
        dirs)

(* --- Certification authorities ---

   "SFS certification authorities are nothing more than ordinary file
   systems serving symbolic links."  This helper builds such a file
   system from a name -> pathname table; serve it with the read-only
   dialect for the paper's high-integrity, no-online-key deployment. *)
let build_ca_fs ~(now : unit -> Sfs_nfs.Nfs_types.nfstime) (table : (string * Pathname.t) list) :
    Memfs.t =
  let fs = Memfs.create ~now () in
  let root_cred = Simos.cred_of_user Simos.root_user in
  List.iter
    (fun (name, path) ->
      match Memfs.symlink fs root_cred ~dir:Memfs.root_id name ~target:(Pathname.to_string path) with
      | Ok _ -> ()
      | Error _ -> invalid_arg ("Keymgmt.build_ca_fs: cannot create " ^ name))
    table;
  fs

(* Add a revocation directory to a CA tree: files named by base-32
   HostID containing revocation certificates (section 2.6's Verisign
   example). *)
let add_revocation_dir (fs : Memfs.t) (certs : Revocation.t list) : unit =
  let root_cred = Simos.cred_of_user Simos.root_user in
  let dir =
    match Memfs.lookup fs root_cred ~dir:Memfs.root_id "revocations" with
    | Ok (id, _) -> id
    | Error _ -> (
        match Memfs.mkdir fs root_cred ~dir:Memfs.root_id "revocations" ~mode:0o755 with
        | Ok (id, _) -> id
        | Error _ -> invalid_arg "Keymgmt.add_revocation_dir")
  in
  List.iter
    (fun cert ->
      let name = Sfs_proto.Hostid.to_base32 (Pathname.hostid (Revocation.target cert)) in
      match Memfs.create_file fs root_cred ~dir name ~mode:0o644 with
      | Ok (id, _) -> ignore (Memfs.write fs root_cred id ~off:0 (Revocation.to_string cert))
      | Error _ -> ())
    certs

(* Agent-side: scan a revocation directory (typically on a CA mounted
   read-only) and learn every valid certificate.  "Even users who
   distrust Verisign ... can still check Verisign for other people's
   revocations" — certificates are self-authenticating, so scanning a
   hostile directory is safe. *)
let scan_revocation_dir (agent : Agent.t) (vfs : Vfs.t) (dir : string) : int =
  let cred = Simos.cred_of_user (Agent.user agent) in
  match Vfs.readdir vfs cred dir with
  | Error _ -> 0
  | Ok names ->
      List.fold_left
        (fun learned name ->
          match Vfs.read_file vfs cred (dir ^ "/" ^ name) with
          | Error _ -> learned
          | Ok bytes -> (
              match Revocation.of_string bytes with
              | Some cert when Agent.learn_revocation agent cert -> learned + 1
              | Some _ | None -> learned))
        0 names

(* --- Existing public key infrastructures (section 2.4) ---

   "One can build an agent that generates self-certifying pathnames
   from SSL certificates": the PKI is any oracle from names to
   (location, public key); the hook turns its answers into on-the-fly
   symlinks. *)
let install_pki_gateway (agent : Agent.t) ~(prefix : string)
    ~(lookup : string -> (string * Rabin.pub) option) : unit =
  Agent.add_hook agent ~name:("pki-" ^ prefix) (fun name ->
      let plen = String.length prefix in
      if String.length name > plen && String.sub name 0 plen = prefix then
        let host = String.sub name plen (String.length name - plen) in
        Option.map
          (fun (location, pubkey) -> Pathname.to_string (Pathname.of_server ~location ~pubkey))
          (lookup host)
      else None)

(* --- Forwarding pointers (section 2.4) ---

   When a server moves, the old file system's root is replaced by a
   single symlink to the new self-certifying pathname.  (If the old key
   was compromised, a revocation certificate overrules this.) *)
let install_forwarding_root (fs : Memfs.t) ~(new_path : Pathname.t) : unit =
  let root_cred = Simos.cred_of_user Simos.root_user in
  (* Clear the root and leave one forwarding symlink. *)
  (match Memfs.readdir fs root_cred Memfs.root_id with
  | Ok entries ->
      List.iter
        (fun de ->
          let open Sfs_nfs.Nfs_types in
          match de.d_attr.ftype with
          | NF_DIR -> ignore (Memfs.rmdir fs root_cred ~dir:Memfs.root_id de.d_name)
          | NF_REG | NF_LNK -> ignore (Memfs.remove fs root_cred ~dir:Memfs.root_id de.d_name))
        entries
  | Error _ -> ());
  ignore
    (Memfs.symlink fs root_cred ~dir:Memfs.root_id "FORWARDED"
       ~target:(Pathname.to_string new_path));
  ignore
    (Memfs.symlink fs root_cred ~dir:Memfs.root_id ".forward"
       ~target:(Pathname.to_string new_path))
