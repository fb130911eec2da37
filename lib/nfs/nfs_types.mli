(** NFS version 3 protocol types (RFC 1813 subset) and their XDR
    codecs.  SFS speaks NFS 3 in two places (paper section 3): the
    client software behaves like an NFS server toward the local
    kernel, and the SFS server acts as an NFS client to a real NFS
    server on the same machine.  The SFS read-write protocol is
    "virtually identical to NFS 3", extended with attribute leases, so
    these types carry both protocols. *)

val block_size : int
(** 8 KB: the block Memfs stores, Cachefs caches and reads ahead,
    Diskmodel prices and Vfs moves whole files in.  Memfs serves a
    stored block without a copy only to a READ of exactly that block,
    so one size keeps Cachefs's whole-block READs copy-free. *)

type ftype = NF_REG | NF_DIR | NF_LNK

type nfsstat =
  | NFS3_OK
  | NFS3ERR_PERM
  | NFS3ERR_NOENT
  | NFS3ERR_IO
  | NFS3ERR_ACCES
  | NFS3ERR_EXIST
  | NFS3ERR_NOTDIR
  | NFS3ERR_ISDIR
  | NFS3ERR_INVAL
  | NFS3ERR_FBIG
  | NFS3ERR_NOSPC
  | NFS3ERR_ROFS
  | NFS3ERR_NAMETOOLONG
  | NFS3ERR_NOTEMPTY
  | NFS3ERR_STALE
  | NFS3ERR_BADHANDLE
  | NFS3ERR_NOTSUPP
  | NFS3ERR_SERVERFAULT

val status_to_string : nfsstat -> string

exception Nfs_error of nfsstat

type 'a res = ('a, nfsstat) result

type fh = string
(** File handles: opaque strings, at most {!max_fh_size} bytes in
    NFS 3.  SFS encrypts them (paper section 3.3); the plain server
    uses inode ids plus a per-filesystem generation secret. *)

val max_fh_size : int

type nfstime = { seconds : int; nseconds : int }
(** Times are (seconds, nanoseconds); the simulation uses microsecond
    clocks, so nanoseconds carry sub-second precision. *)

val time_of_us : float -> nfstime
val time_compare : nfstime -> nfstime -> int

type fattr = {
  ftype : ftype;
  mode : int;
  nlink : int;
  uid : int;
  gid : int;
  size : int;
  used : int;
  fsid : int;
  fileid : int;
  atime : nfstime;
  mtime : nfstime;
  ctime : nfstime;
  lease : int;
      (** SFS extension (paper section 3.3): every attribute structure
          returned by the server carries a lease, in seconds. *)
}

type sattr = {
  set_mode : int option;
  set_uid : int option;
  set_gid : int option;
  set_size : int option;
  set_atime : nfstime option;
  set_mtime : nfstime option;
}
(** Settable attributes. *)

val sattr_empty : sattr

(** ACCESS bits (RFC 1813). *)

val access_read : int
val access_lookup : int
val access_modify : int
val access_extend : int
val access_delete : int
val access_execute : int

type dirent = { d_fileid : int; d_name : string; d_fh : fh; d_attr : fattr }

(** {2 XDR codecs} *)

val enc_status : Sfs_xdr.Xdr.enc -> nfsstat -> unit
val dec_status : Sfs_xdr.Xdr.dec -> nfsstat
val enc_fh : Sfs_xdr.Xdr.enc -> fh -> unit
val dec_fh : Sfs_xdr.Xdr.dec -> fh
val enc_fattr : Sfs_xdr.Xdr.enc -> fattr -> unit
val dec_fattr : Sfs_xdr.Xdr.dec -> fattr
val enc_sattr : Sfs_xdr.Xdr.enc -> sattr -> unit
val dec_sattr : Sfs_xdr.Xdr.dec -> sattr
val enc_dirent : Sfs_xdr.Xdr.enc -> dirent -> unit
val dec_dirent : Sfs_xdr.Xdr.dec -> dirent
