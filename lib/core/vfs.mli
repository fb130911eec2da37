(** The client-machine VFS: path resolution across the local file
    system, conventional mounts, and the /sfs namespace with
    automounting, per-user agent views, dynamic agent links, secure
    links, and revocation/blocking checks (paper sections 2.2, 2.3).

    Every operation carries the calling process's credentials; the
    agent consulted is the one registered for that uid. *)

open Sfs_nfs.Nfs_types
module Fs_intf = Sfs_nfs.Fs_intf
module Simos = Sfs_os.Simos

type verror =
  | Errno of nfsstat
  | Mount_failed of Client.mount_error
  | Symlink_loop
  | Revoked_by_agent
  | Blocked_by_agent
  | Not_absolute

val verror_to_string : verror -> string

type t

val make : ?sfscd:Client.t -> clock:Sfs_net.Simclock.t -> root_fs:Fs_intf.ops -> unit -> t

val add_mount : t -> at:string -> Fs_intf.ops -> unit
(** Mount a file system at an absolute path (e.g. "/mnt"). *)

val set_agent : t -> uid:int -> Agent.t -> unit
(** Each user runs the agent of their choice; registering the same
    agent under uid 0 models the ssu utility. *)

(** {2 Path operations}

    All paths are absolute; symbolic links (including agent-created
    ones and secure links back into /sfs) are followed up to a bound. *)

val resolve : t -> Simos.cred -> string -> (Fs_intf.ops * fh, verror) result

val stat : t -> Simos.cred -> string -> (fattr, verror) result
(* sfslint: allow SL014 — §2.4: a secure link is a symlink; lstat reads the link itself *)
val lstat : t -> Simos.cred -> string -> (fattr, verror) result
val access : t -> Simos.cred -> string -> int -> (int, verror) result

val read_file : t -> Simos.cred -> string -> (string, verror) result
val read_at : t -> Simos.cred -> string -> off:int -> count:int -> (string, verror) result

val write_file : t -> Simos.cred -> string -> string -> (unit, verror) result
(** Create-or-truncate then write and commit. *)

val write_at : t -> Simos.cred -> string -> off:int -> string -> (unit, verror) result
val create : t -> Simos.cred -> ?mode:int -> string -> (unit, verror) result
val mkdir : t -> Simos.cred -> ?mode:int -> string -> (unit, verror) result
val symlink : t -> Simos.cred -> target:string -> string -> (unit, verror) result
val readlink : t -> Simos.cred -> string -> (string, verror) result
val unlink : t -> Simos.cred -> string -> (unit, verror) result
(* sfslint: allow SL014 — rename(2) of the simulated OS, which the fault property's op mix issues *)
val rename : t -> Simos.cred -> src:string -> dst:string -> (unit, verror) result
val chmod : t -> Simos.cred -> string -> int -> (unit, verror) result

val readdir : t -> Simos.cred -> string -> (string list, verror) result
(** Listing /sfs shows only the calling user's visited pathnames and
    agent links — the filename-completion defence of section 2.3. *)

val commit : t -> Simos.cred -> string -> (unit, verror) result

val realpath_mount : t -> Simos.cred -> string -> (string, verror) result
(** The full self-certifying pathname of a path's mount — what pwd
    prints, and the input to secure bookmarks (section 2.4). *)
