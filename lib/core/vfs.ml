(* The client-machine VFS: what user programs see.

   Resolves absolute paths across the local file system, conventional
   mounts, and the /sfs namespace.  Under /sfs (paper sections 2.2,
   2.3):

   - names of the form Location:HostID automount transparently (after
     asking the user's agent about revocation and blocking);
   - any other name is referred to the user's agent, which may answer
     with a symlink target created on the fly (certification paths,
     bookmarks, PKI gateways);
   - directory listings of /sfs show, per user, only the pathnames that
     user's processes have accessed — so "a naive user who searches for
     HostIDs with command-line filename completion cannot be tricked by
     another user into accessing the wrong HostID";
   - symbolic links anywhere may point back into /sfs, forming secure
     links.

   Every operation carries the credentials of the calling process, and
   the agent consulted is the one belonging to those credentials. *)

open Sfs_nfs.Nfs_types
module Fs_intf = Sfs_nfs.Fs_intf
module Simos = Sfs_os.Simos
module Simclock = Sfs_net.Simclock

type verror =
  | Errno of nfsstat
  | Mount_failed of Client.mount_error
  | Symlink_loop
  | Revoked_by_agent
  | Blocked_by_agent
  | Not_absolute

let verror_to_string = function
  | Errno s -> status_to_string s
  | Mount_failed e -> Client.mount_error_to_string e
  | Symlink_loop -> "too many levels of symbolic links"
  | Revoked_by_agent -> "pathname revoked"
  | Blocked_by_agent -> "HostID blocked"
  | Not_absolute -> "path must be absolute"

type t = {
  clock : Simclock.t;
  root_fs : Fs_intf.ops;
  mutable mounts : (string * Fs_intf.ops) list; (* extra mount points, absolute paths *)
  sfscd : Client.t option;
  mutable agents : (int * Agent.t) list; (* uid -> agent *)
  mutable visited : (int * string) list; (* uid, /sfs entry name — newest first *)
  symlink_limit : int;
}

let make ?(sfscd : Client.t option) ~(clock : Simclock.t) ~(root_fs : Fs_intf.ops) () : t =
  { clock; root_fs; mounts = []; sfscd; agents = []; visited = []; symlink_limit = 40 }

let add_mount (t : t) ~(at : string) (ops : Fs_intf.ops) : unit =
  t.mounts <- (at, ops) :: t.mounts

(* Every user runs the agent of their choice (section 2.3); the ssu
   utility maps super-user operations to a user's own agent, modeled by
   registering the same agent under uid 0. *)
let set_agent (t : t) ~(uid : int) (agent : Agent.t) : unit =
  t.agents <- (uid, agent) :: List.remove_assoc uid t.agents

let agent_for (t : t) (cred : Simos.cred) : Agent.t option =
  List.assoc_opt cred.Simos.cred_uid t.agents

(* --- Path utilities --- *)

let split_path (p : string) : (string list, verror) result =
  if p = "" || p.[0] <> '/' then Error Not_absolute
  else Ok (List.filter (fun c -> c <> "" && c <> ".") (String.split_on_char '/' p))

(* A resolution position: the stack of (ops, fh) from the root, so ".."
   pops across mount points correctly.  The string list mirrors the
   absolute path for mount-table lookups. *)
type pos = { stack : (Fs_intf.ops * fh) list; names : string list }

let top (p : pos) (t : t) : Fs_intf.ops * fh =
  match p.stack with [] -> (t.root_fs, t.root_fs.Fs_intf.fs_root) | x :: _ -> x

let record_visit (t : t) (cred : Simos.cred) (name : string) : unit =
  let key = (cred.Simos.cred_uid, name) in
  if not (List.mem key t.visited) then t.visited <- key :: t.visited

exception Resolution of verror

let fail_v (e : verror) : 'a = raise (Resolution e)

(* A raising bind: resolution runs inside [run], which catches. *)
let ( let* ) r f = match r with Ok v -> f v | Error e -> fail_v e

(* Mount an automounted /sfs entry, consulting the agent first. *)
let automount (t : t) (cred : Simos.cred) (path : Pathname.t) : Fs_intf.ops =
  let agent = agent_for t cred in
  (match agent with
  | Some a ->
      if Agent.is_blocked a (Pathname.hostid path) then fail_v Blocked_by_agent;
      if Agent.check_revoked a path <> None then fail_v Revoked_by_agent
  | None -> ());
  match t.sfscd with
  | None -> fail_v (Errno NFS3ERR_NOENT)
  | Some cd -> (
      match Client.mount cd path with
      | Error (Client.Revoked (Some cert) as e) ->
          (* The server distributed a revocation certificate during
             connection setup; the agent keeps it so future accesses
             fail without any network traffic (section 2.6). *)
          (match agent with Some a -> ignore (Agent.learn_revocation a cert) | None -> ());
          fail_v (Mount_failed e)
      | Error e -> fail_v (Mount_failed e)
      | Ok m ->
          (* Authenticate the user to the new server through the agent
             (transparent user authentication, section 2.5).  The authno
             is registered for the calling local uid, so ssu's
             root-shell-to-user-agent mapping works. *)
          (match agent with
          | Some a -> ignore (Client.authenticate ~local_uid:cred.Simos.cred_uid cd m a)
          | None -> ());
          record_visit t cred (Pathname.to_name path);
          Client.ops m)

(* The synthetic /sfs directory object. *)
let sfs_attr (t : t) : fattr =
  let time = time_of_us (Simclock.now_us t.clock) in
  {
    ftype = NF_DIR;
    mode = 0o755;
    nlink = 2;
    uid = 0;
    gid = 0;
    size = 512;
    used = 512;
    fsid = 0xFFFF;
    fileid = 2;
    atime = time;
    mtime = time;
    ctime = time;
    lease = 0;
  }

type node =
  | At of Fs_intf.ops * fh (* an object inside some mounted file system *)
  | Sfs_root (* the synthetic /sfs directory *)

(* Resolve [path] for [cred].  [follow_last] controls whether a final
   symlink is followed (lstat vs stat).  Raises [Resolution]. *)
let rec resolve_node (t : t) (cred : Simos.cred) ~(follow_last : bool) ~(budget : int ref)
    (path : string) : node =
  let* components = split_path path in
  walk t cred ~follow_last ~budget { stack = []; names = [] } components

and walk (t : t) (cred : Simos.cred) ~(follow_last : bool) ~(budget : int ref) (p : pos)
    (components : string list) : node =
  match components with
  | [] ->
      if p.names = [ "sfs" ] then Sfs_root
      else
        let ops, fh = top p t in
        At (ops, fh)
  | ".." :: rest ->
      let stack = match p.stack with [] -> [] | _ :: s -> s in
      let names = match p.names with [] -> [] | _ :: n -> n in
      walk t cred ~follow_last ~budget { stack; names } rest
  | name :: rest when p.names = [ "sfs" ] -> (
      (* Inside /sfs: self-certifying names automount; other names go
         to the agent. *)
      match Pathname.of_name name with
      | Some scp ->
          let ops = automount t cred scp in
          walk t cred ~follow_last ~budget
            { stack = (ops, ops.Fs_intf.fs_root) :: p.stack; names = name :: p.names }
            rest
      | None -> (
          match agent_for t cred with
          | None -> fail_v (Errno NFS3ERR_NOENT)
          | Some agent -> (
              match Agent.resolve_name agent name with
              | None -> fail_v (Errno NFS3ERR_NOENT)
              | Some target ->
                  (* The agent materialized a symlink on the fly. *)
                  if !budget <= 0 then fail_v Symlink_loop;
                  decr budget;
                  splice t cred ~follow_last ~budget p target rest)))
  | name :: rest -> (
      (* A conventional mount point shadows the underlying name. *)
      let next_names = name :: p.names in
      let abs = "/" ^ String.concat "/" (List.rev next_names) in
      match List.assoc_opt abs t.mounts with
      | Some ops ->
          walk t cred ~follow_last ~budget
            { stack = (ops, ops.Fs_intf.fs_root) :: p.stack; names = next_names }
            rest
      | None ->
          if abs = "/sfs" then walk t cred ~follow_last ~budget { p with names = next_names } rest
          else begin
            let ops, dirfh = top p t in
            match ops.Fs_intf.fs_lookup cred ~dir:dirfh name with
            | Error e -> fail_v (Errno e)
            | Ok (fh, attr) -> (
                match attr.ftype with
                | NF_LNK when rest <> [] || follow_last -> (
                    if !budget <= 0 then fail_v Symlink_loop;
                    decr budget;
                    match ops.Fs_intf.fs_readlink cred fh with
                    | Error e -> fail_v (Errno e)
                    | Ok target -> splice t cred ~follow_last ~budget p target rest)
                | NF_LNK | NF_REG | NF_DIR ->
                    walk t cred ~follow_last ~budget
                      { stack = (ops, fh) :: p.stack; names = next_names }
                      rest)
          end)

(* Follow a symlink to [target] found at [p], with [rest] still to
   resolve: an absolute target restarts at /, a relative one is spliced
   in where the link was.  [rest] came from [split_path], so it holds no
   empty or "." component, and the target's are dropped the same way. *)
and splice (t : t) (cred : Simos.cred) ~(follow_last : bool) ~(budget : int ref) (p : pos)
    (target : string) (rest : string list) : node =
  let comps = List.filter (fun c -> c <> "" && c <> ".") (String.split_on_char '/' target) @ rest in
  if target <> "" && target.[0] = '/' then
    walk t cred ~follow_last ~budget { stack = []; names = [] } comps
  else walk t cred ~follow_last ~budget p comps

(* --- Public operations --- *)

let run (f : unit -> 'a) : ('a, verror) result =
  match f () with
  | v -> Ok v
  | exception Resolution e -> Error e
  | exception Nfs_error s -> Error (Errno s)

let resolve (t : t) (cred : Simos.cred) (path : string) : (Fs_intf.ops * fh, verror) result =
  run (fun () ->
      match resolve_node t cred ~follow_last:true ~budget:(ref t.symlink_limit) path with
      | At (ops, fh) -> (ops, fh)
      | Sfs_root -> fail_v (Errno NFS3ERR_INVAL))

(* Split into parent directory and final name, resolving the parent but
   not the leaf (for create/remove/rename/symlink). *)
let resolve_parent (t : t) (cred : Simos.cred) (path : string) :
    (Fs_intf.ops * fh * string, verror) result =
  run (fun () ->
      let* components = Result.map_error Fun.id (split_path path) in
      match List.rev components with
      | [] -> fail_v (Errno NFS3ERR_INVAL)
      | leaf :: rev_parent -> (
          let parent = "/" ^ String.concat "/" (List.rev rev_parent) in
          match resolve_node t cred ~follow_last:true ~budget:(ref t.symlink_limit) parent with
          | At (ops, fh) -> (ops, fh, leaf)
          | Sfs_root -> fail_v (Errno NFS3ERR_ACCES)))

let errno (r : ('a, nfsstat) result) : 'a = match r with Ok v -> v | Error e -> fail_v (Errno e)

let stat (t : t) (cred : Simos.cred) (path : string) : (fattr, verror) result =
  run (fun () ->
      match resolve_node t cred ~follow_last:true ~budget:(ref t.symlink_limit) path with
      | Sfs_root -> sfs_attr t
      | At (ops, fh) -> errno (ops.Fs_intf.fs_getattr cred fh))

let lstat (t : t) (cred : Simos.cred) (path : string) : (fattr, verror) result =
  run (fun () ->
      match resolve_node t cred ~follow_last:false ~budget:(ref t.symlink_limit) path with
      | Sfs_root -> sfs_attr t
      | At (ops, fh) -> errno (ops.Fs_intf.fs_getattr cred fh))

let access (t : t) (cred : Simos.cred) (path : string) (want : int) : (int, verror) result =
  run (fun () ->
      match resolve_node t cred ~follow_last:true ~budget:(ref t.symlink_limit) path with
      | Sfs_root -> want land (access_read lor access_lookup)
      | At (ops, fh) -> errno (ops.Fs_intf.fs_access cred fh want))

let read_file (t : t) (cred : Simos.cred) (path : string) : (string, verror) result =
  run (fun () ->
      let* ops, fh = resolve t cred path in
      let buf = Buffer.create block_size in
      let rec go off =
        let data, eof, _ = errno (ops.Fs_intf.fs_read cred fh ~off ~count:block_size) in
        Buffer.add_string buf data;
        if (not eof) && data <> "" then go (off + String.length data)
      in
      go 0;
      Buffer.contents buf)

let read_at (t : t) (cred : Simos.cred) (path : string) ~(off : int) ~(count : int) :
    (string, verror) result =
  run (fun () ->
      let* ops, fh = resolve t cred path in
      let data, _, _ = errno (ops.Fs_intf.fs_read cred fh ~off ~count) in
      data)

let write_file (t : t) (cred : Simos.cred) (path : string) (data : string) : (unit, verror) result =
  run (fun () ->
      let* ops, dir, name = resolve_parent t cred path in
      let fh =
        match ops.Fs_intf.fs_lookup cred ~dir name with
        | Ok (fh, _) ->
            ignore (errno (ops.Fs_intf.fs_setattr cred fh { sattr_empty with set_size = Some 0 }));
            fh
        | Error NFS3ERR_NOENT -> fst (errno (ops.Fs_intf.fs_create cred ~dir name ~mode:0o644))
        | Error e -> fail_v (Errno e)
      in
      List.iteri
        (fun i chunk ->
          ignore (errno (ops.Fs_intf.fs_write cred fh ~off:(i * block_size) ~stable:false chunk)))
        (if data = "" then [] else Sfs_util.Bytesutil.chunks ~size:block_size data);
      errno (ops.Fs_intf.fs_commit cred fh))

let write_at (t : t) (cred : Simos.cred) (path : string) ~(off : int) (data : string) :
    (unit, verror) result =
  run (fun () ->
      let* ops, fh = resolve t cred path in
      ignore (errno (ops.Fs_intf.fs_write cred fh ~off ~stable:false data)))

let create (t : t) (cred : Simos.cred) ?(mode = 0o644) (path : string) : (unit, verror) result =
  run (fun () ->
      let* ops, dir, name = resolve_parent t cred path in
      ignore (errno (ops.Fs_intf.fs_create cred ~dir name ~mode)))

let mkdir (t : t) (cred : Simos.cred) ?(mode = 0o755) (path : string) : (unit, verror) result =
  run (fun () ->
      let* ops, dir, name = resolve_parent t cred path in
      ignore (errno (ops.Fs_intf.fs_mkdir cred ~dir name ~mode)))

let symlink (t : t) (cred : Simos.cred) ~(target : string) (path : string) : (unit, verror) result =
  run (fun () ->
      let* ops, dir, name = resolve_parent t cred path in
      ignore (errno (ops.Fs_intf.fs_symlink cred ~dir name ~target)))

let readlink (t : t) (cred : Simos.cred) (path : string) : (string, verror) result =
  run (fun () ->
      match resolve_node t cred ~follow_last:false ~budget:(ref t.symlink_limit) path with
      | Sfs_root -> fail_v (Errno NFS3ERR_INVAL)
      | At (ops, fh) -> errno (ops.Fs_intf.fs_readlink cred fh))

let unlink (t : t) (cred : Simos.cred) (path : string) : (unit, verror) result =
  run (fun () ->
      let* ops, dir, name = resolve_parent t cred path in
      errno (ops.Fs_intf.fs_remove cred ~dir name))

let rename (t : t) (cred : Simos.cred) ~(src : string) ~(dst : string) : (unit, verror) result =
  run (fun () ->
      let* _, from_dir, from_name = resolve_parent t cred src in
      let* _, to_dir, to_name = resolve_parent t cred dst in
      (* Cross-filesystem renames are not supported (EXDEV in Unix,
         INVAL here); the common case shares the ops. *)
      let* ops, _ = resolve t cred (Filename.dirname src) in
      errno (ops.Fs_intf.fs_rename cred ~from_dir ~from_name ~to_dir ~to_name))

let chmod (t : t) (cred : Simos.cred) (path : string) (mode : int) : (unit, verror) result =
  run (fun () ->
      let* ops, fh = resolve t cred path in
      ignore (errno (ops.Fs_intf.fs_setattr cred fh { sattr_empty with set_mode = Some mode })))

let readdir (t : t) (cred : Simos.cred) (path : string) : (string list, verror) result =
  run (fun () ->
      match resolve_node t cred ~follow_last:true ~budget:(ref t.symlink_limit) path with
      | Sfs_root ->
          (* Per-user view: visited self-certifying names plus the
             user's agent links. *)
          let visited =
            List.filter_map
              (fun (uid, name) -> if uid = cred.Simos.cred_uid then Some name else None)
              t.visited
          in
          let links =
            match agent_for t cred with Some a -> List.map fst (Agent.links a) | None -> []
          in
          List.sort_uniq compare (visited @ links)
      | At (ops, fh) ->
          let entries = errno (ops.Fs_intf.fs_readdir cred fh) in
          List.map (fun de -> de.d_name) entries)

let commit (t : t) (cred : Simos.cred) (path : string) : (unit, verror) result =
  run (fun () ->
      let* ops, fh = resolve t cred path in
      errno (ops.Fs_intf.fs_commit cred fh))

(* The secure-bookmark primitive (section 2.4): the full self-certifying
   pathname of a path's mount, as pwd would print it. *)
let realpath_mount (_t : t) (cred : Simos.cred) (path : string) : (string, verror) result =
  ignore cred;
  run (fun () ->
      match split_path path with
      | Ok ("sfs" :: name :: _) -> (
          match Pathname.of_name name with
          | Some p -> Pathname.to_string p
          | None -> fail_v (Errno NFS3ERR_NOENT))
      | Ok _ | Error _ -> fail_v (Errno NFS3ERR_INVAL))
