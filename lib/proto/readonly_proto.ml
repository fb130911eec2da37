(* The SFS public read-only dialect (paper sections 2.4, 3.2).

   "A dialect of the SFS protocol that allows servers to prove the
   contents of public, read-only file systems using precomputed digital
   signatures.  This dialect makes the amount of cryptographic
   computation required from read-only servers proportional to the
   file system's size and rate of change, rather than to the number of
   clients connecting.  It also frees read-only servers from the need
   to keep any on-line copies of their private keys, which in turn
   allows read-only file systems to be replicated on untrusted
   machines."

   Mechanism: the publisher hashes every object (file contents,
   symlink targets, directories listing the hashes of their children)
   with SHA-1 and signs only the root digest, stamped with a validity
   window.  Clients fetch objects by hash and verify each against the
   hash that named it, up a chain ending at the signed root.  Serving
   needs no cryptography at all; signing happens once per snapshot.

   (Self-certifying names plus content hashing is the lineage that
   leads to IPFS and friends.) *)

module Sha1 = Sfs_crypto.Sha1
module Rabin = Sfs_crypto.Rabin
module Xdr = Sfs_xdr.Xdr
module Slice = Sfs_util.Slice

type entry_kind = K_file | K_dir | K_symlink

type entry = { e_name : string; e_kind : entry_kind; e_hash : string }

(* A directory is the XDR bytes of its entry array (count word, then
   each entry's name, kind and child hash), kept as a view into the
   string they arrived in.  Every [dir] has passed [dir_valid] or was
   built by [dir_of_entries], so the scans below never leave it. *)
type dir = Slice.t

type obj =
  | O_file of string
  | O_dir of dir
  | O_symlink of string

let enc_kind e (k : entry_kind) = Xdr.enc_uint32 e (match k with K_file -> 0 | K_dir -> 1 | K_symlink -> 2)

let kind_of_int : int -> entry_kind = function
  | 0 -> K_file
  | 1 -> K_dir
  | 2 -> K_symlink
  | k -> Xdr.error "bad entry kind %d" k

let enc_entry e (en : entry) =
  Xdr.enc_string e en.e_name;
  enc_kind e en.e_kind;
  Xdr.enc_fixed_opaque e ~size:20 en.e_hash

(* Bounds of the directory encoding: entries per directory, bytes per
   name. *)
let dir_max = 100000
let name_max = 255

let be32 (s : string) (off : int) : int = Sfs_util.Bytesutil.int_of_be32 s ~off

let pad4 (n : int) : int = (4 - (n land 3)) land 3

(* The offset of the kind word of the entry at [pos]: past its name's
   length word, the name and the name's padding. *)
let kind_off (s : string) (pos : int) : int =
  let n = be32 s pos in
  pos + 4 + n + pad4 n

let rec zeros (s : string) (off : int) (n : int) : bool =
  n = 0 || (Char.equal s.[off] '\000' && zeros s (off + 1) (n - 1))

(* The offset past the [left] entries starting at [pos] when each is
   well formed and inside [stop], else -1.  Allocation-free. *)
let rec entries_end (s : string) (pos : int) (stop : int) (left : int) : int =
  if left = 0 then pos
  else if pos + 4 > stop then -1
  else
    let n = be32 s pos in
    let k = kind_off s pos in
    if n > name_max || k + 24 > stop || (not (zeros s (pos + 4 + n) (pad4 n))) || be32 s k > 2
    then -1
    else entries_end s (k + 24) stop (left - 1)

(* The one structure check: a count within bounds, then exactly that
   many well-formed entries and no trailing bytes. *)
let dir_valid (d : Slice.t) : bool =
  let s = Slice.base d and off = Slice.offset d in
  let stop = off + Slice.length d in
  off + 4 <= stop
  && be32 s off <= dir_max
  && Int.equal (entries_end s (off + 4) stop (be32 s off)) stop

let dir_of_entries (entries : entry list) : dir =
  Slice.of_string (Xdr.encode (fun e l -> Xdr.enc_array e enc_entry l) entries)

let dir_length (d : dir) : int = be32 (Slice.base d) (Slice.offset d)

let rec same_name (s : string) (off : int) (name : string) (i : int) : bool =
  i = String.length name || (Char.equal s.[off + i] name.[i] && same_name s off name (i + 1))

let rec find_from (s : string) (pos : int) (stop : int) (name : string) : string option =
  if pos >= stop then None
  else
    let k = kind_off s pos in
    if Int.equal (be32 s pos) (String.length name) && same_name s (pos + 4) name 0 then
      Some (String.sub s (k + 4) 20)
    else find_from s (k + 24) stop name

let dir_find (d : dir) (name : string) : string option =
  let off = Slice.offset d in
  find_from (Slice.base d) (off + 4) (off + Slice.length d) name

let rec entries_from (s : string) (pos : int) (stop : int) : entry list =
  if pos >= stop then []
  else
    let k = kind_off s pos in
    let e_name = String.sub s (pos + 4) (be32 s pos) in
    let e = { e_name; e_kind = kind_of_int (be32 s k); e_hash = String.sub s (k + 4) 20 } in
    e :: entries_from s (k + 24) stop

let dir_entries (d : dir) : entry list =
  let off = Slice.offset d in
  entries_from (Slice.base d) (off + 4) (off + Slice.length d)

let enc_obj e (o : obj) =
  match o with
  | O_file data ->
      Xdr.enc_uint32 e 0;
      Xdr.enc_opaque e data
  | O_dir d ->
      Xdr.enc_uint32 e 1;
      Xdr.enc_raw e (Slice.to_string d)
  | O_symlink target ->
      Xdr.enc_uint32 e 2;
      Xdr.enc_string e target

(* Largest object (and file) the dialect carries: 32 MiB. *)
let obj_max = 0x2000000

(* A directory stays where it lies: validated, not decoded. *)
let dec_obj d : obj =
  match Xdr.dec_uint32 d with
  | 0 -> O_file (Xdr.dec_opaque d ~max:obj_max)
  | 1 ->
      let dir = Xdr.dec_rest_slice d in
      if not (dir_valid dir) then Xdr.error "malformed directory";
      O_dir dir
  | 2 -> O_symlink (Xdr.dec_string d ~max:1024)
  | t -> Xdr.error "bad object tag %d" t

let obj_to_string (o : obj) : string = Xdr.encode enc_obj o

let obj_of_slice (s : Slice.t) : (obj, string) result = Xdr.run_slice s dec_obj

(* Content addressing: the hash of an object is the hash of its
   marshaled bytes. *)
let hash_obj (o : obj) : string = Sha1.digest (obj_to_string o)

(* --- The signed root --- *)

type fsinfo = {
  root_hash : string;
  issued_s : int; (* snapshot time *)
  duration_s : int; (* validity window; clients refuse stale roots *)
  serial : int; (* monotone snapshot counter, stops rollback inside the window *)
}

let enc_fsinfo e (i : fsinfo) =
  Xdr.enc_string e "RO-FSInfo";
  Xdr.enc_fixed_opaque e ~size:20 i.root_hash;
  Xdr.enc_uint32 e i.issued_s;
  Xdr.enc_uint32 e i.duration_s;
  Xdr.enc_uint32 e i.serial

let dec_fsinfo d : fsinfo =
  let tag = Xdr.dec_string d ~max:16 in
  if not (Sfs_util.Bytesutil.ct_equal tag "RO-FSInfo") then Xdr.error "bad fsinfo tag";
  let root_hash = Xdr.dec_fixed_opaque d ~size:20 in
  let issued_s = Xdr.dec_uint32 d in
  let duration_s = Xdr.dec_uint32 d in
  let serial = Xdr.dec_uint32 d in
  { root_hash; issued_s; duration_s; serial }

let sign_fsinfo (key : Rabin.priv) (i : fsinfo) : string =
  Rabin.signature_to_string (Rabin.sign key (Xdr.encode enc_fsinfo i))

let verify_fsinfo (pubkey : Rabin.pub) (i : fsinfo) ~(signature : string) : bool =
  match Rabin.signature_of_string signature with
  | Some s -> Rabin.verify pubkey (Xdr.encode enc_fsinfo i) s
  | None -> false

(* --- Wire messages (service = Fs_readonly) ---

   Get_fsinfo/Get_obj is the client-facing fetch protocol.  Put_objs /
   Put_root is the publisher -> mirror fan-out: a mirror is a dumb
   content-addressed byte store, so replication is "store these bytes
   under these hashes, then swap the signed root".  The mirror verifies
   nothing — it cannot be trusted anyway, and clients re-verify every
   object against the hash chain, so a lying publisher (or mirror) can
   only cause fetches to fail, never to return wrong data. *)

type ro_request =
  | Get_fsinfo
  | Get_obj of string (* hash *)
  | Put_objs of (string * Slice.t) list
      (* (hash, marshaled object) pairs; decoded as views into the
         request, so a mirror builds each reply frame straight from it *)
  | Put_root of { fsinfo : fsinfo; signature : string; evict : string list }

type ro_response =
  | Fsinfo_is of { fsinfo : fsinfo; signature : string }
  | Obj_is of string (* marshaled object *)
  | Ro_error of string
  | Put_ok of int (* objects stored / root accepted *)

let enc_put_obj e ((h, bytes) : string * Slice.t) =
  Xdr.enc_fixed_opaque e ~size:20 h;
  Xdr.enc_opaque_slice e bytes

let dec_put_obj d : string * Slice.t =
  let h = Xdr.dec_fixed_opaque d ~size:20 in
  let bytes = Xdr.dec_opaque_slice d ~max:obj_max in
  (h, bytes)

let enc_ro_request e (r : ro_request) =
  match r with
  | Get_fsinfo -> Xdr.enc_uint32 e 0
  | Get_obj h ->
      Xdr.enc_uint32 e 1;
      Xdr.enc_fixed_opaque e ~size:20 h
  | Put_objs objs ->
      Xdr.enc_uint32 e 2;
      Xdr.enc_array e enc_put_obj objs
  | Put_root { fsinfo; signature; evict } ->
      Xdr.enc_uint32 e 3;
      enc_fsinfo e fsinfo;
      Xdr.enc_opaque e signature;
      Xdr.enc_array e (fun e h -> Xdr.enc_fixed_opaque e ~size:20 h) evict

let dec_ro_request d : ro_request =
  match Xdr.dec_uint32 d with
  | 0 -> Get_fsinfo
  | 1 -> Get_obj (Xdr.dec_fixed_opaque d ~size:20)
  | 2 -> Put_objs (Xdr.dec_array d ~max:4096 dec_put_obj)
  | 3 ->
      let fsinfo = dec_fsinfo d in
      let signature = Xdr.dec_opaque d ~max:4096 in
      let evict = Xdr.dec_array d ~max:100000 (fun d -> Xdr.dec_fixed_opaque d ~size:20) in
      Put_root { fsinfo; signature; evict }
  | t -> Xdr.error "bad ro request %d" t

(* The wire tag of [Obj_is], shared by the generic codec and the
   exact-size frame path below. *)
let obj_is_tag = 1

let enc_ro_response e (r : ro_response) =
  match r with
  | Fsinfo_is { fsinfo; signature } ->
      Xdr.enc_uint32 e 0;
      enc_fsinfo e fsinfo;
      Xdr.enc_opaque e signature
  | Obj_is bytes ->
      Xdr.enc_uint32 e obj_is_tag;
      Xdr.enc_opaque e bytes
  | Ro_error msg ->
      Xdr.enc_uint32 e 2;
      Xdr.enc_string e msg
  | Put_ok n ->
      Xdr.enc_uint32 e 3;
      Xdr.enc_uint32 e n

let dec_ro_response d : ro_response =
  match Xdr.dec_uint32 d with
  | 0 ->
      let fsinfo = dec_fsinfo d in
      let signature = Xdr.dec_opaque d ~max:4096 in
      Fsinfo_is { fsinfo; signature }
  | 1 -> Obj_is (Xdr.dec_opaque d ~max:obj_max)
  | 2 -> Ro_error (Xdr.dec_string d ~max:255)
  | 3 -> Put_ok (Xdr.dec_uint32 d)
  | t -> Xdr.error "bad ro response %d" t

let ro_request_to_string r = Xdr.encode enc_ro_request r
let ro_response_to_string r = Xdr.encode enc_ro_response r
let ro_request_of_string s = Xdr.run s dec_ro_request
let ro_response_of_string s = Xdr.run s dec_ro_response

(* --- Serving from a lookup ---

   An object reply is the object's marshaled bytes behind an 8-byte
   header.  A server builds it once, at its exact size, and can then
   hand the same string to every client; a client hashes and decodes
   the object where it lies in the reply. *)

let obj_frame (o : Slice.t) : string =
  let n = Slice.length o in
  let pad = (4 - (n land 3)) land 3 in
  let b = Bytes.create (8 + n + pad) in
  Sfs_util.Bytesutil.put_be32 b ~off:0 obj_is_tag;
  Sfs_util.Bytesutil.put_be32 b ~off:4 n;
  Slice.blit o ~src_off:0 b ~dst_off:8 ~len:n;
  Bytes.fill b (8 + n) pad '\000';
  Bytes.unsafe_to_string b

let enc_obj_frame (e : Xdr.enc) (o : obj) : unit =
  Xdr.enc_uint32 e obj_is_tag;
  Xdr.enc_nested e (fun e -> enc_obj e o)

let obj_frame_view (frame : string) : (Slice.t, string) result =
  if String.length frame >= 4 && Int.equal (Sfs_util.Bytesutil.int_of_be32 frame ~off:0) obj_is_tag
  then
    Xdr.run frame (fun d ->
        ignore (Xdr.dec_uint32 d);
        Xdr.dec_opaque_slice d ~max:obj_max)
  else
    match ro_response_of_string frame with
    | Ok (Ro_error e) -> Error e
    | Ok (Fsinfo_is _ | Obj_is _ | Put_ok _) -> Error "unexpected response"
    | Error e -> Error e
