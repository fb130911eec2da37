(** NFS 3 program wire codecs (RFC 1813 subset), shared by server and
    client.  Procedure argument/result structures are marshaled with
    {!Sfs_xdr.Xdr}; results are a status discriminant followed by the
    payload. *)

open Nfs_types

val prog : int
val vers : int

(** {2 Procedure numbers (RFC 1813)} *)

val proc_null : int
val proc_getattr : int
val proc_setattr : int
val proc_lookup : int
val proc_access : int
val proc_readlink : int
val proc_read : int
val proc_write : int
val proc_create : int
val proc_mkdir : int
val proc_symlink : int
val proc_remove : int
val proc_rmdir : int
val proc_rename : int
val proc_link : int
val proc_readdirplus : int
val proc_fsstat : int
val proc_commit : int

(** The MOUNT protocol, collapsed to its MNT procedure. *)

val mount_prog : int
val mount_vers : int
val mount_proc_mnt : int

val proc_name : int -> string
(** Human-readable procedure name ("getattr", "lookup", ...); falls
    back to ["proc<N>"] for unknown numbers. *)

(** {2 Result envelope} *)

val enc_res : (Sfs_xdr.Xdr.enc -> 'a -> unit) -> Sfs_xdr.Xdr.enc -> 'a res -> unit
val dec_res : (Sfs_xdr.Xdr.dec -> 'a) -> Sfs_xdr.Xdr.dec -> 'a res

(** {2 Argument structures} *)

val enc_diropargs : Sfs_xdr.Xdr.enc -> fh * string -> unit
val dec_diropargs : Sfs_xdr.Xdr.dec -> fh * string
val enc_read_args : Sfs_xdr.Xdr.enc -> fh * int * int -> unit
val dec_read_args : Sfs_xdr.Xdr.dec -> fh * int * int
val enc_write_args : Sfs_xdr.Xdr.enc -> fh * int * bool * string -> unit
val dec_write_args : Sfs_xdr.Xdr.dec -> fh * int * bool * string

val enc_create_args : Sfs_xdr.Xdr.enc -> fh * string * int -> unit
val dec_create_args : Sfs_xdr.Xdr.dec -> fh * string * int
val enc_symlink_args : Sfs_xdr.Xdr.enc -> fh * string * string -> unit
val dec_symlink_args : Sfs_xdr.Xdr.dec -> fh * string * string
val enc_rename_args : Sfs_xdr.Xdr.enc -> fh * string * fh * string -> unit
val dec_rename_args : Sfs_xdr.Xdr.dec -> fh * string * fh * string
val enc_link_args : Sfs_xdr.Xdr.enc -> fh * fh * string -> unit
val dec_link_args : Sfs_xdr.Xdr.dec -> fh * fh * string
val enc_setattr_args : Sfs_xdr.Xdr.enc -> fh * sattr -> unit
val dec_setattr_args : Sfs_xdr.Xdr.dec -> fh * sattr
val enc_access_args : Sfs_xdr.Xdr.enc -> fh * int -> unit
val dec_access_args : Sfs_xdr.Xdr.dec -> fh * int

(** {2 Result payloads} *)

val enc_lookup_ok : Sfs_xdr.Xdr.enc -> fh * fattr -> unit
val dec_lookup_ok : Sfs_xdr.Xdr.dec -> fh * fattr
val enc_read_ok : Sfs_xdr.Xdr.enc -> string * bool * fattr -> unit
val dec_read_ok : Sfs_xdr.Xdr.dec -> string * bool * fattr

val enc_access_ok : Sfs_xdr.Xdr.enc -> fattr * int -> unit
val dec_access_ok : Sfs_xdr.Xdr.dec -> fattr * int
val enc_readdir_ok : Sfs_xdr.Xdr.enc -> dirent list -> unit
val dec_readdir_ok : Sfs_xdr.Xdr.dec -> dirent list
val enc_fsstat_ok : Sfs_xdr.Xdr.enc -> int * int -> unit
val dec_fsstat_ok : Sfs_xdr.Xdr.dec -> int * int
val enc_unit_ok : Sfs_xdr.Xdr.enc -> unit -> unit
val dec_unit_ok : Sfs_xdr.Xdr.dec -> unit
