(** An in-memory Unix file system with NFS 3 semantics: the storage
    substrate standing in for FreeBSD's FFS.  Enforces Unix permission
    bits against credentials; timing is charged separately by
    {!Diskmodel} at the serving layer. *)

open Nfs_types
module Simos = Sfs_os.Simos

type file
(** A regular file's data: one immutable string per 8,192-byte block,
    each a prefix of its block, plus the size; unstored bytes read as
    zeros. *)

type node_kind =
  | Reg of file
  | Dir of (string, int) Hashtbl.t
  | Symlink of string

type t

val root_id : int

val create : ?fsid:int -> now:(unit -> nfstime) -> unit -> t
(** [now] supplies timestamps (wired to the simulation clock). *)

(* sfslint: allow SL014 — NFS 3's read-only export (NFS3ERR_ROFS), which only the Memfs tests mount *)
val set_read_only : t -> bool -> unit
(** A read-only file system fails all mutations with [NFS3ERR_ROFS]. *)

(** {2 Reads} *)

val getattr : t -> int -> fattr res
val lookup : t -> Simos.cred -> dir:int -> string -> (int * fattr) res
val access : t -> Simos.cred -> int -> int -> int res
val readlink : t -> Simos.cred -> int -> string res

val read : t -> Simos.cred -> int -> off:int -> count:int -> (string * bool) res
(** [(data, eof)].  A range that is exactly one stored block returns
    the stored string itself; any other range is one exact-size copy. *)

val readdir : t -> Simos.cred -> int -> dirent list res
(** Entries sorted by name; [d_fh] fields carry inode numbers. *)

(** {2 Mutations} *)

val setattr : t -> Simos.cred -> int -> sattr -> fattr res
(** chmod/chown/utimes require ownership (chown: root); truncate
    requires write access.  A cut drops the stored bytes past the new
    size, so a later extension reads zeros there; an extension
    allocates nothing. *)

val create_file : t -> Simos.cred -> dir:int -> string -> mode:int -> (int * fattr) res
val mkdir : t -> Simos.cred -> dir:int -> string -> mode:int -> (int * fattr) res
val symlink : t -> Simos.cred -> dir:int -> string -> target:string -> (int * fattr) res

val write : t -> Simos.cred -> int -> off:int -> string -> fattr res
(** Keeps [data] itself as a block when it is all that lands in a block
    it covers from the start past the stored bytes, so [data] must not
    be a view of a buffer the caller reuses; any other block touched is
    copied once. *)

val remove : t -> Simos.cred -> dir:int -> string -> unit res
val rmdir : t -> Simos.cred -> dir:int -> string -> unit res

val link : t -> Simos.cred -> target:int -> dir:int -> string -> fattr res

val rename :
  t -> Simos.cred -> from_dir:int -> from_name:string -> to_dir:int -> to_name:string -> unit res

(** {2 Introspection} *)

type fsstat = { total_files : int; total_bytes : int }

val statfs : t -> fsstat

val inode_kind : t -> int -> node_kind option
(** Direct structural access, used by the read-only snapshot builder. *)

val inode_gen : t -> int -> int option
(** The inode's content generation: a globally monotone counter stamped
    at creation and bumped on every data mutation (write, truncate).
    Equal generations guarantee byte-identical content, which is what
    lets the read-only publisher skip re-hashing clean files between
    snapshots.  Generation values are never reused across inodes. *)
