(* NFS 3 program wire codecs (RFC 1813 subset), shared by server and
   client.  Procedure argument/result structures are marshaled with
   Xdr; results are a status discriminant followed by the payload. *)

open Nfs_types
module Xdr = Sfs_xdr.Xdr

let prog = 100003
let vers = 3

(* Procedure numbers per RFC 1813. *)
let proc_null = 0
let proc_getattr = 1
let proc_setattr = 2
let proc_lookup = 3
let proc_access = 4
let proc_readlink = 5
let proc_read = 6
let proc_write = 7
let proc_create = 8
let proc_mkdir = 9
let proc_symlink = 10
let proc_remove = 12
let proc_rmdir = 13
let proc_rename = 14
let proc_link = 15
let proc_readdirplus = 17
let proc_fsstat = 18
let proc_commit = 21

(* The MOUNT protocol, collapsed to its MNT procedure. *)
let mount_prog = 100005
let mount_vers = 3
let mount_proc_mnt = 1

let proc_name (proc : int) : string =
  if proc = proc_null then "null"
  else if proc = proc_getattr then "getattr"
  else if proc = proc_setattr then "setattr"
  else if proc = proc_lookup then "lookup"
  else if proc = proc_access then "access"
  else if proc = proc_readlink then "readlink"
  else if proc = proc_read then "read"
  else if proc = proc_write then "write"
  else if proc = proc_create then "create"
  else if proc = proc_mkdir then "mkdir"
  else if proc = proc_symlink then "symlink"
  else if proc = proc_remove then "remove"
  else if proc = proc_rmdir then "rmdir"
  else if proc = proc_rename then "rename"
  else if proc = proc_link then "link"
  else if proc = proc_readdirplus then "readdirplus"
  else if proc = proc_fsstat then "fsstat"
  else if proc = proc_commit then "commit"
  else Printf.sprintf "proc%d" proc

(* --- result envelope --- *)

let enc_res (enc_ok : Xdr.enc -> 'a -> unit) (e : Xdr.enc) (r : 'a res) : unit =
  match r with
  | Ok v ->
      enc_status e NFS3_OK;
      enc_ok e v
  | Error s -> enc_status e s

let dec_res (dec_ok : Xdr.dec -> 'a) (d : Xdr.dec) : 'a res =
  match dec_status d with NFS3_OK -> Ok (dec_ok d) | s -> Error s

(* --- argument structures --- *)

let enc_diropargs e (dir, name) =
  enc_fh e dir;
  Xdr.enc_string e name

let dec_diropargs d =
  let dir = dec_fh d in
  let name = Xdr.dec_string d ~max:255 in
  (dir, name)

let enc_read_args e (h, off, count) =
  enc_fh e h;
  Xdr.enc_uint64 e (Int64.of_int off);
  Xdr.enc_uint32 e count

let dec_read_args d =
  let h = dec_fh d in
  let off = Int64.to_int (Xdr.dec_uint64 d) in
  let count = Xdr.dec_uint32 d in
  (h, off, count)

let enc_write_args e (h, off, stable, data) =
  enc_fh e h;
  Xdr.enc_uint64 e (Int64.of_int off);
  Xdr.enc_uint32 e (String.length data);
  Xdr.enc_uint32 e (if stable then 2 (* FILE_SYNC *) else 0 (* UNSTABLE *));
  Xdr.enc_opaque e data

let dec_write_args d =
  let h = dec_fh d in
  let off = Int64.to_int (Xdr.dec_uint64 d) in
  let _count = Xdr.dec_uint32 d in
  let stable = Xdr.dec_uint32 d <> 0 in
  let data = Xdr.dec_opaque d ~max:0x200000 in
  (h, off, stable, data)

(* [dec_write_args] reduced to the stability word: the same messages
   accepted and rejected, with the handle and the data checked in place
   instead of copied out. *)
let dec_write_stable d =
  ignore (Xdr.dec_opaque_slice d ~max:max_fh_size);
  ignore (Xdr.dec_uint64 d);
  ignore (Xdr.dec_uint32 d);
  let stable = Xdr.dec_uint32 d <> 0 in
  ignore (Xdr.dec_opaque_slice d ~max:0x200000);
  stable

let enc_create_args e (dir, name, mode) =
  enc_diropargs e (dir, name);
  Xdr.enc_uint32 e mode

let dec_create_args d =
  let dir, name = dec_diropargs d in
  let mode = Xdr.dec_uint32 d in
  (dir, name, mode)

let enc_symlink_args e (dir, name, target) =
  enc_diropargs e (dir, name);
  Xdr.enc_string e target

let dec_symlink_args d =
  let dir, name = dec_diropargs d in
  let target = Xdr.dec_string d ~max:1024 in
  (dir, name, target)

let enc_rename_args e (fd, fn, td, tn) =
  enc_diropargs e (fd, fn);
  enc_diropargs e (td, tn)

let dec_rename_args d =
  let fd, fn = dec_diropargs d in
  let td, tn = dec_diropargs d in
  (fd, fn, td, tn)

let enc_link_args e (target, dir, name) =
  enc_fh e target;
  enc_diropargs e (dir, name)

let dec_link_args d =
  let target = dec_fh d in
  let dir, name = dec_diropargs d in
  (target, dir, name)

let enc_setattr_args e (h, s) =
  enc_fh e h;
  enc_sattr e s

let dec_setattr_args d =
  let h = dec_fh d in
  let s = dec_sattr d in
  (h, s)

let enc_access_args e (h, want) =
  enc_fh e h;
  Xdr.enc_uint32 e want

let dec_access_args d =
  let h = dec_fh d in
  let want = Xdr.dec_uint32 d in
  (h, want)

(* --- result payloads --- *)

let enc_lookup_ok e ((h : fh), (a : fattr)) =
  enc_fh e h;
  enc_fattr e a

let dec_lookup_ok d =
  let h = dec_fh d in
  let a = dec_fattr d in
  (h, a)

let enc_read_ok e ((data : string), (eof : bool), (a : fattr)) =
  enc_fattr e a;
  Xdr.enc_uint32 e (String.length data);
  Xdr.enc_bool e eof;
  Xdr.enc_opaque e data

let dec_read_ok d =
  let a = dec_fattr d in
  let _count = Xdr.dec_uint32 d in
  let eof = Xdr.dec_bool d in
  let data = Xdr.dec_opaque d ~max:0x200000 in
  (data, eof, a)

let enc_access_ok e ((a : fattr), (granted : int)) =
  enc_fattr e a;
  Xdr.enc_uint32 e granted

let dec_access_ok d =
  let a = dec_fattr d in
  let granted = Xdr.dec_uint32 d in
  (a, granted)

let enc_readdir_ok e (entries : dirent list) = Xdr.enc_array e enc_dirent entries
let dec_readdir_ok d = Xdr.dec_array d ~max:100000 dec_dirent

let enc_fsstat_ok e ((files : int), (bytes : int)) =
  Xdr.enc_uint64 e (Int64.of_int files);
  Xdr.enc_uint64 e (Int64.of_int bytes)

let dec_fsstat_ok d =
  let files = Int64.to_int (Xdr.dec_uint64 d) in
  let bytes = Int64.to_int (Xdr.dec_uint64 d) in
  (files, bytes)

let enc_unit_ok (_ : Xdr.enc) () = ()
let dec_unit_ok (_ : Xdr.dec) = ()
