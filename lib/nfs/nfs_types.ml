(* NFS version 3 protocol types (RFC 1813 subset) and their XDR codecs.

   SFS speaks NFS 3 in two places (paper section 3): the client software
   behaves like an NFS server toward the local kernel, and the SFS
   server acts as an NFS client to a real NFS server on the same
   machine.  The SFS read-write protocol itself is "virtually identical
   to NFS 3", extended with attribute leases and invalidation
   callbacks, so these types carry both protocols. *)

module Xdr = Sfs_xdr.Xdr

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

let status_code = function
  | NFS3_OK -> 0
  | NFS3ERR_PERM -> 1
  | NFS3ERR_NOENT -> 2
  | NFS3ERR_IO -> 5
  | NFS3ERR_ACCES -> 13
  | NFS3ERR_EXIST -> 17
  | NFS3ERR_NOTDIR -> 20
  | NFS3ERR_ISDIR -> 21
  | NFS3ERR_INVAL -> 22
  | NFS3ERR_FBIG -> 27
  | NFS3ERR_NOSPC -> 28
  | NFS3ERR_ROFS -> 30
  | NFS3ERR_NAMETOOLONG -> 63
  | NFS3ERR_NOTEMPTY -> 66
  | NFS3ERR_STALE -> 70
  | NFS3ERR_BADHANDLE -> 10001
  | NFS3ERR_NOTSUPP -> 10004
  | NFS3ERR_SERVERFAULT -> 10006

let status_of_code = function
  | 0 -> NFS3_OK
  | 1 -> NFS3ERR_PERM
  | 2 -> NFS3ERR_NOENT
  | 5 -> NFS3ERR_IO
  | 13 -> NFS3ERR_ACCES
  | 17 -> NFS3ERR_EXIST
  | 20 -> NFS3ERR_NOTDIR
  | 21 -> NFS3ERR_ISDIR
  | 22 -> NFS3ERR_INVAL
  | 27 -> NFS3ERR_FBIG
  | 28 -> NFS3ERR_NOSPC
  | 30 -> NFS3ERR_ROFS
  | 63 -> NFS3ERR_NAMETOOLONG
  | 66 -> NFS3ERR_NOTEMPTY
  | 70 -> NFS3ERR_STALE
  | 10001 -> NFS3ERR_BADHANDLE
  | 10004 -> NFS3ERR_NOTSUPP
  | 10006 -> NFS3ERR_SERVERFAULT
  | c -> Xdr.error "unknown nfsstat %d" c

let status_to_string = function
  | NFS3_OK -> "OK"
  | NFS3ERR_PERM -> "EPERM"
  | NFS3ERR_NOENT -> "ENOENT"
  | NFS3ERR_IO -> "EIO"
  | NFS3ERR_ACCES -> "EACCES"
  | NFS3ERR_EXIST -> "EEXIST"
  | NFS3ERR_NOTDIR -> "ENOTDIR"
  | NFS3ERR_ISDIR -> "EISDIR"
  | NFS3ERR_INVAL -> "EINVAL"
  | NFS3ERR_FBIG -> "EFBIG"
  | NFS3ERR_NOSPC -> "ENOSPC"
  | NFS3ERR_ROFS -> "EROFS"
  | NFS3ERR_NAMETOOLONG -> "ENAMETOOLONG"
  | NFS3ERR_NOTEMPTY -> "ENOTEMPTY"
  | NFS3ERR_STALE -> "ESTALE"
  | NFS3ERR_BADHANDLE -> "EBADHANDLE"
  | NFS3ERR_NOTSUPP -> "ENOTSUPP"
  | NFS3ERR_SERVERFAULT -> "ESERVERFAULT"

exception Nfs_error of nfsstat

type 'a res = ('a, nfsstat) result

(* File handles: opaque strings, at most 64 bytes in NFS 3.  SFS
   encrypts them (paper section 3.3); the plain server uses inode ids
   plus a per-filesystem generation secret. *)
type fh = string

let max_fh_size = 64

(* Times are (seconds, nanoseconds); the simulation uses microsecond
   clocks, so nanoseconds carry sub-second precision. *)
type nfstime = { seconds : int; nseconds : int }

let time_of_us (us : float) : nfstime =
  let s = int_of_float (us /. 1_000_000.0) in
  { seconds = s; nseconds = int_of_float ((us -. (float_of_int s *. 1_000_000.0)) *. 1000.0) }

let time_compare (a : nfstime) (b : nfstime) : int =
  match compare a.seconds b.seconds with 0 -> compare a.nseconds b.nseconds | c -> c

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
  (* SFS extension (paper section 3.3): every attribute structure
     returned by the server carries a lease, in seconds. *)
  lease : int;
}

(* Settable attributes. *)
type sattr = {
  set_mode : int option;
  set_uid : int option;
  set_gid : int option;
  set_size : int option;
  set_atime : nfstime option;
  set_mtime : nfstime option;
}

let sattr_empty =
  { set_mode = None; set_uid = None; set_gid = None; set_size = None; set_atime = None; set_mtime = None }

(* ACCESS bits (RFC 1813). *)
let access_read = 0x01
let access_lookup = 0x02
let access_modify = 0x04
let access_extend = 0x08
let access_delete = 0x10
let access_execute = 0x20

type dirent = { d_fileid : int; d_name : string; d_fh : fh; d_attr : fattr }

(* --- XDR codecs --- *)

let enc_ftype e (t : ftype) = Xdr.enc_uint32 e (match t with NF_REG -> 1 | NF_DIR -> 2 | NF_LNK -> 5)

let dec_ftype d : ftype =
  match Xdr.dec_uint32 d with
  | 1 -> NF_REG
  | 2 -> NF_DIR
  | 5 -> NF_LNK
  | t -> Xdr.error "bad ftype %d" t

let enc_status e (s : nfsstat) = Xdr.enc_uint32 e (status_code s)
let dec_status d : nfsstat = status_of_code (Xdr.dec_uint32 d)

let enc_fh e (h : fh) =
  if String.length h > max_fh_size then Xdr.error "file handle too large";
  Xdr.enc_opaque e h

let dec_fh d : fh = Xdr.dec_opaque d ~max:max_fh_size

let enc_time e (t : nfstime) =
  Xdr.enc_uint32 e t.seconds;
  Xdr.enc_uint32 e t.nseconds

let dec_time d : nfstime =
  let seconds = Xdr.dec_uint32 d in
  let nseconds = Xdr.dec_uint32 d in
  { seconds; nseconds }

let enc_fattr e (a : fattr) =
  enc_ftype e a.ftype;
  Xdr.enc_uint32 e a.mode;
  Xdr.enc_uint32 e a.nlink;
  Xdr.enc_uint32 e a.uid;
  Xdr.enc_uint32 e a.gid;
  Xdr.enc_uint64 e (Int64.of_int a.size);
  Xdr.enc_uint64 e (Int64.of_int a.used);
  Xdr.enc_uint32 e a.fsid;
  Xdr.enc_uint64 e (Int64.of_int a.fileid);
  enc_time e a.atime;
  enc_time e a.mtime;
  enc_time e a.ctime;
  Xdr.enc_uint32 e a.lease

let dec_fattr d : fattr =
  let ftype = dec_ftype d in
  let mode = Xdr.dec_uint32 d in
  let nlink = Xdr.dec_uint32 d in
  let uid = Xdr.dec_uint32 d in
  let gid = Xdr.dec_uint32 d in
  let size = Int64.to_int (Xdr.dec_uint64 d) in
  let used = Int64.to_int (Xdr.dec_uint64 d) in
  let fsid = Xdr.dec_uint32 d in
  let fileid = Int64.to_int (Xdr.dec_uint64 d) in
  let atime = dec_time d in
  let mtime = dec_time d in
  let ctime = dec_time d in
  let lease = Xdr.dec_uint32 d in
  { ftype; mode; nlink; uid; gid; size; used; fsid; fileid; atime; mtime; ctime; lease }

let enc_sattr e (s : sattr) =
  Xdr.enc_option e (fun e v -> Xdr.enc_uint32 e v) s.set_mode;
  Xdr.enc_option e (fun e v -> Xdr.enc_uint32 e v) s.set_uid;
  Xdr.enc_option e (fun e v -> Xdr.enc_uint32 e v) s.set_gid;
  Xdr.enc_option e (fun e v -> Xdr.enc_uint64 e (Int64.of_int v)) s.set_size;
  Xdr.enc_option e enc_time s.set_atime;
  Xdr.enc_option e enc_time s.set_mtime

let dec_sattr d : sattr =
  let set_mode = Xdr.dec_option d Xdr.dec_uint32 in
  let set_uid = Xdr.dec_option d Xdr.dec_uint32 in
  let set_gid = Xdr.dec_option d Xdr.dec_uint32 in
  let set_size = Xdr.dec_option d (fun d -> Int64.to_int (Xdr.dec_uint64 d)) in
  let set_atime = Xdr.dec_option d dec_time in
  let set_mtime = Xdr.dec_option d dec_time in
  { set_mode; set_uid; set_gid; set_size; set_atime; set_mtime }

let enc_dirent e (de : dirent) =
  Xdr.enc_uint64 e (Int64.of_int de.d_fileid);
  Xdr.enc_string e de.d_name;
  enc_fh e de.d_fh;
  enc_fattr e de.d_attr

let dec_dirent d : dirent =
  let d_fileid = Int64.to_int (Xdr.dec_uint64 d) in
  let d_name = Xdr.dec_string d ~max:255 in
  let d_fh = dec_fh d in
  let d_attr = dec_fattr d in
  { d_fileid; d_name; d_fh; d_attr }
