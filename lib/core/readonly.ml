(* The public read-only file system dialect (paper sections 2.4, 3.2).

   The publisher takes a snapshot of a Memfs tree: every object is
   content-hashed, directories reference children by hash, and the root
   hash is signed once with the server's private key.  Serving requires
   no cryptographic computation and no on-line private key, so
   snapshots "can be replicated on untrusted machines" — any host can
   serve the bytes; clients verify every object against the hash chain
   ending at the signed root.  This is how SFS certification
   authorities meet their "high integrity, availability, and
   performance needs".

   Snapshots are incremental: pass the previous snapshot and only dirty
   content is re-read and re-hashed.  Memfs content generations
   (Memfs.inode_gen) prove cleanliness — an unchanged generation means
   byte-identical content, so the old hash and the old bytes carry
   over.  Directory spines are always rebuilt (they are small, and the
   walk must visit them anyway to learn what changed below), and the
   root is re-signed once per publish: cryptographic cost stays
   proportional to the file system's size and rate of change, never to
   the client count. *)

open Sfs_nfs.Nfs_types
module Ro = Sfs_proto.Readonly_proto
module Keyneg = Sfs_proto.Keyneg
module Rabin = Sfs_crypto.Rabin
module Sha1 = Sfs_crypto.Sha1
module Memfs = Sfs_nfs.Memfs
module Simos = Sfs_os.Simos
module Simnet = Sfs_net.Simnet
module Simclock = Sfs_net.Simclock
module Costmodel = Sfs_net.Costmodel
module Obs = Sfs_obs.Obs
module Xdr = Sfs_xdr.Xdr
module Slice = Sfs_util.Slice

(* --- Snapshot building --- *)

type snapshot = {
  store : (string, string) Hashtbl.t; (* hash -> marshaled object *)
  fsinfo : Ro.fsinfo;
  signature : string;
  memo : (int, int * Ro.entry_kind * string) Hashtbl.t;
      (* inode id -> (content generation, kind, hash): the next
         snapshot reuses a leaf's hash when the generation still
         matches *)
  sn_reused : int; (* leaf objects carried over unhashed *)
  sn_hashed : int; (* objects marshaled and hashed this publish *)
  sn_fresh_bytes : int; (* bytes the hashing covered (the SHA-1 bill) *)
}

type build = {
  b_enc : Xdr.enc; (* one encoder marshals every object of the build *)
  b_store : (string, string) Hashtbl.t;
  b_memo : (int, int * Ro.entry_kind * string) Hashtbl.t;
  mutable b_reused : int;
  mutable b_hashed : int;
  mutable b_fresh : int;
}

let put (b : build) (o : Ro.obj) : string =
  Xdr.reset b.b_enc;
  Ro.enc_obj b.b_enc o;
  let bytes = Xdr.to_string b.b_enc in
  let h = Sha1.digest bytes in
  Hashtbl.replace b.b_store h bytes;
  b.b_hashed <- b.b_hashed + 1;
  b.b_fresh <- b.b_fresh + String.length bytes;
  h

(* A leaf (file/symlink) is clean when the previous snapshot memoized
   the same inode at the same content generation and still holds the
   bytes: carry hash and bytes over without reading or hashing. *)
let reuse_leaf (prev : snapshot option) (fs : Memfs.t) (id : int) : (Ro.entry_kind * string * string) option =
  match prev with
  | None -> None
  | Some p -> (
      match (Hashtbl.find_opt p.memo id, Memfs.inode_gen fs id) with
      | Some (gen, kind, hash), Some gen' when gen = gen' -> (
          match Hashtbl.find_opt p.store hash with
          | Some bytes -> Some (kind, hash, bytes)
          | None -> None)
      | _ -> None)

let memoize (b : build) (fs : Memfs.t) (id : int) (kind : Ro.entry_kind) (hash : string) : unit =
  match Memfs.inode_gen fs id with
  | Some gen -> Hashtbl.replace b.b_memo id (gen, kind, hash)
  | None -> ()

(* Recursively hash a Memfs subtree into the store. *)
let rec snap_inode (fs : Memfs.t) ~(prev : snapshot option) (b : build) (cred : Simos.cred)
    (id : int) : (Ro.entry_kind * string) option =
  match Memfs.inode_kind fs id with
  | None -> None
  | Some (Memfs.Reg _ | Memfs.Symlink _) -> (
      match reuse_leaf prev fs id with
      | Some (kind, hash, bytes) ->
          Hashtbl.replace b.b_store hash bytes;
          memoize b fs id kind hash;
          b.b_reused <- b.b_reused + 1;
          Some (kind, hash)
      | None -> (
          let leaf =
            match Memfs.inode_kind fs id with
            | Some (Memfs.Reg _) -> (
                match Memfs.read fs cred id ~off:0 ~count:max_int with
                | Ok (data, _) -> Some (Ro.K_file, Ro.O_file data)
                | Error _ -> None)
            | Some (Memfs.Symlink target) -> Some (Ro.K_symlink, Ro.O_symlink target)
            | _ -> None
          in
          match leaf with
          | None -> None
          | Some (kind, o) ->
              let h = put b o in
              memoize b fs id kind h;
              Some (kind, h)))
  | Some (Memfs.Dir _) -> (
      match Memfs.readdir fs cred id with
      | Error _ -> None
      | Ok entries ->
          let children =
            List.filter_map
              (fun de ->
                match snap_inode fs ~prev b cred de.d_fileid with
                | Some (e_kind, e_hash) -> Some { Ro.e_name = de.d_name; e_kind; e_hash }
                | None -> None)
              entries
          in
          (* Directory spines are rebuilt every publish: cheap (a few
             dozen bytes per entry) and unavoidable — the walk must
             read them to find the dirt below. *)
          Some (Ro.K_dir, put b (Ro.O_dir children)))

(* Validity window of every signed root: a day. *)
let duration_s = 24 * 3600

let snapshot ?(serial = 1) ?prev ~(key : Rabin.priv) ~(now_s : int)
    (fs : Memfs.t) : snapshot =
  let b =
    {
      b_enc = Xdr.make_enc ();
      b_store = Hashtbl.create 256;
      b_memo = Hashtbl.create 256;
      b_reused = 0;
      b_hashed = 0;
      b_fresh = 0;
    }
  in
  (* Published contents are world-readable by construction: the
     snapshot reads as root and anything unreadable is omitted. *)
  let cred = Simos.cred_of_user Simos.root_user in
  match snap_inode fs ~prev b cred Memfs.root_id with
  | Some (Ro.K_dir, root_hash) ->
      let fsinfo = { Ro.root_hash; issued_s = now_s; duration_s; serial } in
      {
        store = b.b_store;
        fsinfo;
        signature = Ro.sign_fsinfo key fsinfo;
        memo = b.b_memo;
        sn_reused = b.b_reused;
        sn_hashed = b.b_hashed;
        sn_fresh_bytes = b.b_fresh;
      }
  | _ -> invalid_arg "Readonly.snapshot: root is not a directory"

let snapshot_size (s : snapshot) : int =
  Hashtbl.fold (fun _ bytes acc -> acc + String.length bytes) s.store 0

let fsinfo (s : snapshot) : Ro.fsinfo = s.fsinfo
let signature (s : snapshot) : string = s.signature
let object_count (s : snapshot) : int = Hashtbl.length s.store
let mem (s : snapshot) (h : string) : bool = Hashtbl.mem s.store h
let fold_store (s : snapshot) (f : string -> string -> 'a -> 'a) (init : 'a) : 'a =
  Hashtbl.fold f s.store init
let reuse_stats (s : snapshot) : int * int = (s.sn_reused, s.sn_hashed)
let fresh_bytes (s : snapshot) : int = s.sn_fresh_bytes

(* --- Server ---

   The server side is trivial by design: look up bytes, return them.
   It never touches a private key; [serve] works from any replica.
   An object reply is built once at its exact size from the stored
   bytes (Ro.obj_frame).  The fan-out procedures are for mirrors
   (Replica.mirror); a publisher's own snapshot refuses them. *)

let handle_request (s : snapshot) (bytes : string) : string =
  let reply r = Ro.ro_response_to_string r in
  match Ro.ro_request_of_string bytes with
  | Result.Error e -> reply (Ro.Ro_error e)
  | Ok Ro.Get_fsinfo -> reply (Ro.Fsinfo_is { fsinfo = s.fsinfo; signature = s.signature })
  | Ok (Ro.Get_obj h) -> (
      match Hashtbl.find_opt s.store h with
      | Some bytes -> Ro.obj_frame (Slice.of_string bytes)
      | None -> reply (Ro.Ro_error "no such object"))
  | Ok (Ro.Put_objs _ | Ro.Put_root _) -> reply (Ro.Ro_error "not a mirror")

(* --- Verifying client --- *)

exception Verification_failed of string

type client = {
  exchange : string -> string;
  pubkey : Rabin.pub;
  clock : Simclock.t;
  obs : Obs.registry option;
  cache : Vcache.t; (* verified objects, LRU-bounded *)
  enc : Xdr.enc; (* marshals every Get_obj request *)
  mutable fsinfo : Ro.fsinfo;
  mutable last_serial : int;
  mutable root_frame : string; (* raw bytes of the last verified root reply *)
}

(* Fetch the signed root.  When [cached] matches the reply byte for
   byte, the signature was already checked over exactly these bytes and
   only the clock has advanced, so the (expensive) Rabin verification
   is skipped; the validity-window and rollback checks always run —
   they depend on the present, not on the bytes. *)
let fetch_root ~(exchange : string -> string) ~(pubkey : Rabin.pub) ~(clock : Simclock.t)
    ~(min_serial : int) ~(cached : string option) :
    Ro.fsinfo * string * bool =
  let raw = exchange (Ro.ro_request_to_string Ro.Get_fsinfo) in
  match Ro.ro_response_of_string raw with
  | Ok (Ro.Fsinfo_is { fsinfo; signature }) ->
      let skipped =
        match cached with
        | Some prev -> Sfs_util.Bytesutil.ct_equal raw prev
        | None -> false
      in
      if not skipped then begin
        Simclock.advance clock Costmodel.rabin_verify_us;
        if not (Ro.verify_fsinfo pubkey fsinfo ~signature) then
          raise (Verification_failed "bad root signature")
      end;
      let now = Simclock.seconds clock in
      if now > fsinfo.Ro.issued_s + fsinfo.Ro.duration_s then
        raise (Verification_failed "stale snapshot (past validity window)");
      if fsinfo.Ro.serial < min_serial then raise (Verification_failed "snapshot rollback detected");
      (fsinfo, raw, skipped)
  | Ok (Ro.Ro_error e) -> raise (Verification_failed e)
  | Ok (Ro.Obj_is _ | Ro.Put_ok _) -> raise (Verification_failed "unexpected response")
  | Result.Error e -> raise (Verification_failed e)

let connect ?obs ?(cache_objs = 4096) ~(exchange : string -> string)
    ~(pubkey : Rabin.pub) ~(clock : Simclock.t) () : client =
  let fsinfo, raw, _ =
    fetch_root ~exchange ~pubkey ~clock ~min_serial:0 ~cached:None
  in
  Obs.incr obs "ro.root.verify";
  {
    exchange;
    pubkey;
    clock;
    obs;
    cache = Vcache.create ?obs ~cap:cache_objs ();
    enc = Xdr.make_enc ();
    fsinfo;
    last_serial = fsinfo.Ro.serial;
    root_frame = raw;
  }

(* Fetch an object and verify it is the preimage of the hash that named
   it — the step that lets untrusted replicas serve the data.  The
   object is hashed and decoded where it lies in the reply, so a file's
   bytes are copied once, into the decoded object.  Each hash is
   verified once: the vcache remembers verified objects (LRU), and
   content addressing keeps hits valid across replicas and across root
   serials. *)
let fetch (c : client) (h : string) : Ro.obj =
  match Vcache.find c.cache h with
  | Some o -> o
  | None -> (
      Xdr.reset c.enc;
      Ro.enc_ro_request c.enc (Ro.Get_obj h);
      match Ro.obj_frame_view (c.exchange (Xdr.to_string c.enc)) with
      | Result.Error e -> raise (Verification_failed e)
      | Ok view -> (
          let n = Slice.length view in
          Simclock.advance c.clock (float_of_int n *. Costmodel.sha1_us_per_byte);
          let digest = Sha1.digest_sub (Slice.base view) ~off:(Slice.offset view) ~len:n in
          if not (Sfs_util.Bytesutil.ct_equal digest h) then begin
            Obs.incr c.obs "ro.verify.fail";
            raise (Verification_failed "object does not match its hash")
          end;
          match Ro.obj_of_slice view with
          | Ok o ->
              Obs.incr c.obs "ro.verify.ok";
              Obs.add c.obs "ro.verify.bytes" n;
              Vcache.add c.cache ~hash:h ~bytes:n o;
              o
          | Result.Error e ->
              Obs.incr c.obs "ro.verify.fail";
              raise (Verification_failed e)))

(* --- Fs_intf over a verified snapshot --- *)

let fileid_of_hash (h : string) : int = Sfs_util.Bytesutil.int_of_be32 h ~off:0

let ( let* ) = Result.bind

let obj_of_fh (c : client) (h : fh) : Ro.obj res =
  if String.length h <> 20 then Error NFS3ERR_BADHANDLE
  else match fetch c h with o -> Ok o | exception Verification_failed _ -> Error NFS3ERR_IO

let synth_attr (c : client) (h : string) (o : Ro.obj) : fattr =
  let t = { seconds = c.fsinfo.Ro.issued_s; nseconds = 0 } in
  let ftype, size, mode =
    match o with
    | Ro.O_file data -> (NF_REG, String.length data, 0o444)
    | Ro.O_dir entries -> (NF_DIR, 512 + (List.length entries * 32), 0o555)
    | Ro.O_symlink target -> (NF_LNK, String.length target, 0o777)
  in
  {
    ftype;
    mode;
    nlink = 1;
    uid = 0;
    gid = 0;
    size;
    used = size;
    fsid = fileid_of_hash c.fsinfo.Ro.root_hash land 0xFFFF;
    fileid = fileid_of_hash h;
    atime = t;
    mtime = t;
    ctime = t;
    (* Contents are immutable for the snapshot's validity window. *)
    lease = max 1 (c.fsinfo.Ro.issued_s + c.fsinfo.Ro.duration_s - Simclock.seconds c.clock);
  }

let rofs = Error NFS3ERR_ROFS

let ops (c : client) : Sfs_nfs.Fs_intf.ops =
  {
    Sfs_nfs.Fs_intf.fs_root = c.fsinfo.Ro.root_hash;
    fs_getattr =
      (fun _cred h ->
        let* o = obj_of_fh c h in
        Ok (synth_attr c h o));
    fs_setattr = (fun _ _ _ -> rofs);
    fs_lookup =
      (fun _cred ~dir name ->
        let* o = obj_of_fh c dir in
        match o with
        | Ro.O_dir entries -> (
            match List.find_opt (fun e -> e.Ro.e_name = name) entries with
            | None -> Error NFS3ERR_NOENT
            | Some e ->
                let* child = obj_of_fh c e.Ro.e_hash in
                Ok (e.Ro.e_hash, synth_attr c e.Ro.e_hash child))
        | Ro.O_file _ | Ro.O_symlink _ -> Error NFS3ERR_NOTDIR);
    fs_access =
      (fun _cred h want ->
        let* o = obj_of_fh c h in
        let granted =
          match o with
          | Ro.O_dir _ -> access_read lor access_lookup
          | Ro.O_file _ | Ro.O_symlink _ -> access_read lor access_execute
        in
        Ok (granted land want));
    fs_readlink =
      (fun _cred h ->
        let* o = obj_of_fh c h in
        match o with Ro.O_symlink t -> Ok t | Ro.O_file _ | Ro.O_dir _ -> Error NFS3ERR_INVAL);
    fs_read =
      (fun _cred h ~off ~count ->
        let* o = obj_of_fh c h in
        match o with
        | Ro.O_file data ->
            if off < 0 || count < 0 then Error NFS3ERR_INVAL
            else begin
              let avail = max 0 (String.length data - off) in
              let n = min count avail in
              let chunk = if n = 0 then "" else String.sub data off n in
              Ok (chunk, off + n >= String.length data, synth_attr c h o)
            end
        | Ro.O_dir _ -> Error NFS3ERR_ISDIR
        | Ro.O_symlink _ -> Error NFS3ERR_INVAL);
    fs_write = (fun _ _ ~off:_ ~stable:_ _ -> rofs);
    fs_create = (fun _ ~dir:_ _ ~mode:_ -> rofs);
    fs_mkdir = (fun _ ~dir:_ _ ~mode:_ -> rofs);
    fs_symlink = (fun _ ~dir:_ _ ~target:_ -> rofs);
    fs_remove = (fun _ ~dir:_ _ -> rofs);
    fs_rmdir = (fun _ ~dir:_ _ -> rofs);
    fs_rename = (fun _ ~from_dir:_ ~from_name:_ ~to_dir:_ ~to_name:_ -> rofs);
    fs_link = (fun _ ~target:_ ~dir:_ _ -> rofs);
    fs_readdir =
      (fun _cred h ->
        let* o = obj_of_fh c h in
        match o with
        | Ro.O_dir entries ->
            Ok
              (List.filter_map
                 (fun e ->
                   match obj_of_fh c e.Ro.e_hash with
                   | Ok child ->
                       Some
                         {
                           d_fileid = fileid_of_hash e.Ro.e_hash;
                           d_name = e.Ro.e_name;
                           d_fh = e.Ro.e_hash;
                           d_attr = synth_attr c e.Ro.e_hash child;
                         }
                   | Error _ -> None)
                 entries)
        | Ro.O_file _ | Ro.O_symlink _ -> Error NFS3ERR_NOTDIR);
    fs_commit = (fun _ _ -> Ok ());
    fs_fsstat = (fun _ _ -> Ok (Vcache.count c.cache, Vcache.bytes c.cache));
  }

(* Refresh the signed root (e.g. after the validity window lapses or to
   pick up a new snapshot).  Rollback to an older serial is refused.
   When the reply is byte-identical to the one already verified, the
   signature check is skipped — re-verifying the same bytes proves
   nothing new; only the window and serial checks rerun.  Cached
   objects survive a root change: content addressing means a hash still
   reachable from the new root names the same bytes. *)
let refresh (c : client) : unit =
  let fsinfo, raw, skipped =
    fetch_root ~exchange:c.exchange ~pubkey:c.pubkey ~clock:c.clock
      ~min_serial:c.last_serial ~cached:(Some c.root_frame)
  in
  if skipped then begin
    Obs.incr c.obs "ro.root.skip"
  end
  else begin
    Obs.incr c.obs "ro.root.verify"
  end;
  c.fsinfo <- fsinfo;
  c.root_frame <- raw;
  c.last_serial <- fsinfo.Ro.serial

let current_fsinfo (c : client) : Ro.fsinfo = c.fsinfo
