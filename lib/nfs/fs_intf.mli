(** The common file system interface.

    Every mountable file system — the local Memfs, an NFS 3 client
    connection, an SFS secure mount, a read-only verified mount — is a
    value of {!ops}.  The VFS resolves paths over these; the caching
    layer (Cachefs) wraps them transparently.  Handles are NFS-style
    opaque strings; credentials travel with every call, because SFS
    maps operations to per-user agents and servers grant access to
    users, not clients (paper section 2.1.1). *)

open Nfs_types
module Simos = Sfs_os.Simos

type ops = {
  fs_root : fh;
  fs_getattr : Simos.cred -> fh -> fattr res;
  fs_setattr : Simos.cred -> fh -> sattr -> fattr res;
  fs_lookup : Simos.cred -> dir:fh -> string -> (fh * fattr) res;
  fs_access : Simos.cred -> fh -> int -> int res;
  fs_readlink : Simos.cred -> fh -> string res;
  fs_read : Simos.cred -> fh -> off:int -> count:int -> (string * bool * fattr) res;
      (** data, eof, post-op attributes (NFS 3 piggybacks attributes on
          every reply; caches feed on them) *)
  fs_write : Simos.cred -> fh -> off:int -> stable:bool -> string -> fattr res;
  fs_create : Simos.cred -> dir:fh -> string -> mode:int -> (fh * fattr) res;
  fs_mkdir : Simos.cred -> dir:fh -> string -> mode:int -> (fh * fattr) res;
  fs_symlink : Simos.cred -> dir:fh -> string -> target:string -> (fh * fattr) res;
  fs_remove : Simos.cred -> dir:fh -> string -> unit res;
  fs_rmdir : Simos.cred -> dir:fh -> string -> unit res;
  fs_rename :
    Simos.cred -> from_dir:fh -> from_name:string -> to_dir:fh -> to_name:string -> unit res;
  fs_link : Simos.cred -> target:fh -> dir:fh -> string -> fattr res;
  fs_readdir : Simos.cred -> fh -> dirent list res;
  fs_commit : Simos.cred -> fh -> unit res;
  fs_fsstat : Simos.cred -> fh -> (int * int) res;  (** files, bytes *)
}

(** A pipelined read path the transport may offer the cache (readahead,
    DESIGN.md §11).  [pl_submit] issues one READ through the windowed
    dispatcher and returns a thunk that awaits the reply.  The thunk may
    raise a transport fault; callers fall back to the synchronous
    [fs_read], whose recovery path handles it (READs are idempotent, so an
    abandoned in-flight prefetch is harmless).  The data is a string of
    its own, decoded once out of the opened reply (DESIGN.md §14): the
    block cache stores it as the block, and a read of exactly that block
    returns it as is. *)
type pipeline = {
  pl_depth : int;  (** readahead depth (blocks beyond the demanded one) *)
  pl_submit : Simos.cred -> fh -> off:int -> count:int -> (unit -> (string * bool * fattr) res);
}
