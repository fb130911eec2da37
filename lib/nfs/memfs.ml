(* An in-memory Unix file system with NFS 3 semantics.

   This is the storage substrate standing in for FreeBSD's FFS: the
   local file system on SFS and NFS servers, the backing store for the
   read-only dialect's snapshots, and (accessed directly) the "Local"
   stack in the benchmarks.  Enforces Unix permission bits against
   Simos credentials; timing is charged separately by Diskmodel at the
   server layer, keeping mechanism and cost model apart. *)

open Nfs_types
module Simos = Sfs_os.Simos

(* A regular file's data: one immutable string per 8,192-byte block,
   each a prefix of its block, and the file size.  The bytes after a
   block's stored prefix, up to [size], read as zeros; no stored byte
   lies at or past [size].  Blocks past the end of [blocks] store
   nothing, so extending a file allocates nothing. *)
type file = { mutable blocks : string array; mutable size : int }

type node_kind =
  | Reg of file
  | Dir of (string, int) Hashtbl.t
  | Symlink of string

type inode = {
  id : int;
  kind : node_kind;
  mutable mode : int;
  mutable uid : int;
  mutable gid : int;
  mutable nlink : int;
  mutable atime : nfstime;
  mutable mtime : nfstime;
  mutable ctime : nfstime;
  mutable gen : int; (* content generation: bumped when data changes *)
}

type t = {
  fsid : int;
  now : unit -> nfstime;
  inodes : (int, inode) Hashtbl.t;
  mutable next_id : int;
  mutable mutation : int; (* global content-mutation counter; gen values come from here *)
}

let root_id = 1

let create ?(fsid = 1) ~(now : unit -> nfstime) () : t =
  let t =
    { fsid; now; inodes = Hashtbl.create 256; next_id = 2; mutation = 0 }
  in
  let time = now () in
  Hashtbl.replace t.inodes root_id
    {
      id = root_id;
      kind = Dir (Hashtbl.create 16);
      mode = 0o755;
      uid = 0;
      gid = 0;
      nlink = 2;
      atime = time;
      mtime = time;
      ctime = time;
      gen = 0;
    };
  t

(* Content generations drive the read-only dialect's incremental
   snapshots: an inode whose [gen] is unchanged since the last snapshot
   is guaranteed to marshal to the same bytes, so the publisher can
   reuse its hash instead of re-reading and re-hashing the data.  The
   counter is global and monotone, so generation values are never
   reused even when inode ids are. *)
let bump_gen (t : t) (i : inode) : unit =
  t.mutation <- t.mutation + 1;
  i.gen <- t.mutation

let ( let* ) = Result.bind

let find (t : t) (id : int) : inode res =
  match Hashtbl.find_opt t.inodes id with Some i -> Ok i | None -> Error NFS3ERR_STALE

let kind_ftype = function Reg _ -> NF_REG | Dir _ -> NF_DIR | Symlink _ -> NF_LNK

let node_size (i : inode) : int =
  match i.kind with
  | Reg f -> f.size
  | Dir entries -> 512 + (Hashtbl.length entries * 32)
  | Symlink target -> String.length target

(* The lease field is filled by the serving layer; raw attributes carry
   zero. *)
let attr_of_inode (t : t) (i : inode) : fattr =
  {
    ftype = kind_ftype i.kind;
    mode = i.mode;
    nlink = i.nlink;
    uid = i.uid;
    gid = i.gid;
    size = node_size i;
    used = (node_size i + block_size - 1) / block_size * block_size;
    fsid = t.fsid;
    fileid = i.id;
    atime = i.atime;
    mtime = i.mtime;
    ctime = i.ctime;
    lease = 0;
  }

(* --- Permission checks --- *)

let check_perm (cred : Simos.cred) (i : inode) ~(want : int) : unit res =
  (* [want] is a 3-bit rwx mask.  Root bypasses checks; anonymous
     matches "other". *)
  if Simos.is_superuser cred then Ok ()
  else begin
    let shift =
      if cred.Simos.cred_uid = i.uid then 6
      else if Simos.in_group cred i.gid then 3
      else 0
    in
    if (i.mode lsr shift) land want = want then Ok () else Error NFS3ERR_ACCES
  end

let can_read cred i = check_perm cred i ~want:4
let can_write cred i = check_perm cred i ~want:2
let can_exec cred i = check_perm cred i ~want:1

(* A namespace change needs write and search permission on each
   directory it changes (POSIX). *)
let can_change_dir cred d = check_perm cred d ~want:3

let valid_name (name : string) : unit res =
  if name = "" || name = "." || name = ".." then Error NFS3ERR_INVAL
  else if String.length name > 255 then Error NFS3ERR_NAMETOOLONG
  else if String.contains name '/' then Error NFS3ERR_INVAL
  else Ok ()

let dir_entries (i : inode) : (string, int) Hashtbl.t res =
  match i.kind with Dir entries -> Ok entries | Reg _ | Symlink _ -> Error NFS3ERR_NOTDIR

(* --- Reads --- *)

let getattr (t : t) (id : int) : fattr res =
  let* i = find t id in
  Ok (attr_of_inode t i)

let lookup (t : t) (cred : Simos.cred) ~(dir : int) (name : string) : (int * fattr) res =
  let* d = find t dir in
  let* entries = dir_entries d in
  let* () = can_exec cred d in
  if name = "." then Ok (dir, attr_of_inode t d)
  else
    match Hashtbl.find_opt entries name with
    | None -> Error NFS3ERR_NOENT
    | Some id ->
        let* i = find t id in
        Ok (id, attr_of_inode t i)

let access (t : t) (cred : Simos.cred) (id : int) (want : int) : int res =
  let* i = find t id in
  let bit cond flag = if cond then flag else 0 in
  let r = Result.is_ok (can_read cred i) in
  let w = Result.is_ok (can_write cred i) in
  let x = Result.is_ok (can_exec cred i) in
  let granted =
    match i.kind with
    | Dir _ ->
        (* Changing a directory's entries also needs search. *)
        bit r access_read lor bit x access_lookup
        lor bit (w && x) (access_modify lor access_extend lor access_delete)
    | Reg _ | Symlink _ ->
        bit r access_read lor bit w (access_modify lor access_extend) lor bit x access_execute
  in
  Ok (granted land want)

let readlink (t : t) (cred : Simos.cred) (id : int) : string res =
  let* i = find t id in
  let* () = can_read cred i in
  match i.kind with Symlink target -> Ok target | Reg _ | Dir _ -> Error NFS3ERR_INVAL

(* --- The block store --- *)

let stored (f : file) (b : int) : string = if b < Array.length f.blocks then f.blocks.(b) else ""

(* The file bytes [off, off + n), [0 < n] and [off + n <= f.size].  A
   range that is exactly one stored block is served as that block
   itself; any other range is one exact-size copy, zeros where nothing
   is stored. *)
let read_blocks (f : file) ~(off : int) ~(n : int) : string =
  let first = stored f (off / block_size) in
  if off mod block_size = 0 && String.length first = n then first
  else begin
    let out = Bytes.make n '\000' in (* sfslint: allow SL013 — a range other than one stored block has no string of its own *)
    let pos = ref off in
    while !pos < off + n do
      let b = !pos / block_size in
      let boff = !pos - (b * block_size) in
      let take = min (block_size - boff) (off + n - !pos) in
      let s = stored f b in
      let have = min take (String.length s - boff) in
      if have > 0 then Bytes.blit_string s boff out (!pos - off) have;
      pos := !pos + take
    done;
    Bytes.unsafe_to_string out
  end

(* Write [data] at [off].  A block the write covers from its start past
   its stored bytes becomes the caller's string itself when that string
   is the whole of what lands in the block; any other block touched is
   copied once, with its old bytes, the zeros of any gap and the new
   bytes.  Callers pass immutable strings: no writer keeps a view of a
   buffer it later reuses. *)
let write_blocks (f : file) ~(off : int) (data : string) : unit =
  let len = String.length data in
  let endoff = off + len in
  let nb = (endoff + block_size - 1) / block_size in
  if len > 0 && nb > Array.length f.blocks then begin
    let grown = Array.make (max nb (2 * Array.length f.blocks)) "" in
    Array.blit f.blocks 0 grown 0 (Array.length f.blocks);
    f.blocks <- grown
  end;
  let pos = ref off in
  while !pos < endoff do
    let b = !pos / block_size in
    let boff = !pos - (b * block_size) in
    let take = min (block_size - boff) (endoff - !pos) in
    let old = f.blocks.(b) in
    f.blocks.(b) <-
      (if boff = 0 && take = len && len >= String.length old then data
       else begin
         let keep = String.length old in
         let blk = Bytes.make (max keep (boff + take)) '\000' in (* sfslint: allow SL013 — copy-on-write of a block the write covers only in part *)
         Bytes.blit_string old 0 blk 0 keep;
         Bytes.blit_string data (!pos - off) blk boff take;
         Bytes.unsafe_to_string blk
       end);
    pos := !pos + take
  done;
  if endoff > f.size then f.size <- endoff

(* Set the size: a cut drops the blocks past it and trims the block it
   falls in, so a later extension reads zeros there; an extension
   allocates nothing. *)
let resize (f : file) (size : int) : unit =
  if size < f.size then begin
    let nb = (size + block_size - 1) / block_size in
    if nb < Array.length f.blocks then f.blocks <- Array.sub f.blocks 0 nb;
    if nb > 0 then begin
      let last = stored f (nb - 1) and keep = size - ((nb - 1) * block_size) in
      if String.length last > keep then f.blocks.(nb - 1) <- String.sub last 0 keep
    end
  end;
  f.size <- size

(* Matches instead of [let*]: the data path's commonest call builds no
   continuation closures. *)
let read (t : t) (cred : Simos.cred) (id : int) ~(off : int) ~(count : int) : (string * bool) res =
  match Hashtbl.find_opt t.inodes id with
  | None -> Error NFS3ERR_STALE
  | Some i -> (
      match (can_read cred i, i.kind) with
      | Error e, _ -> Error e
      | Ok (), Dir _ -> Error NFS3ERR_ISDIR
      | Ok (), Symlink _ -> Error NFS3ERR_INVAL
      | Ok (), Reg f ->
          if off < 0 || count < 0 then Error NFS3ERR_INVAL
          else begin
            i.atime <- t.now ();
            let n = min count (max 0 (f.size - off)) in
            Ok ((if n = 0 then "" else read_blocks f ~off ~n), off + n >= f.size)
          end)

let readdir (t : t) (cred : Simos.cred) (id : int) : dirent list res =
  let* i = find t id in
  let* entries = dir_entries i in
  let* () = can_read cred i in
  i.atime <- t.now ();
  let names = Hashtbl.fold (fun name eid acc -> (name, eid) :: acc) entries [] in
  let names = List.sort (fun (a, _) (b, _) -> compare a b) names in
  Ok
    (List.filter_map
       (fun (name, eid) ->
         match find t eid with
         | Ok ei ->
             Some { d_fileid = eid; d_name = name; d_fh = string_of_int eid; d_attr = attr_of_inode t ei }
         | Error _ -> None)
       names)

(* --- Mutations --- *)

let setattr (t : t) (cred : Simos.cred) (id : int) (s : sattr) : fattr res =
  let* i = find t id in
  let owner = Simos.is_superuser cred || cred.Simos.cred_uid = i.uid in
  (* chmod/chown/utimes need ownership; truncate needs write access. *)
  let* () =
    if (s.set_mode <> None || s.set_uid <> None || s.set_gid <> None || s.set_atime <> None || s.set_mtime <> None)
       && not owner
    then Error NFS3ERR_PERM
    else Ok ()
  in
  let* () =
    match s.set_size with
    | None -> Ok ()
    | Some _ when owner -> Ok ()
    | Some _ -> can_write cred i
  in
  let* () =
    match (s.set_uid, Simos.is_superuser cred) with
    | Some _, false -> Error NFS3ERR_PERM (* only root may chown *)
    | _ -> Ok ()
  in
  Option.iter (fun m -> i.mode <- m land 0o7777) s.set_mode;
  Option.iter (fun u -> i.uid <- u) s.set_uid;
  Option.iter (fun g -> i.gid <- g) s.set_gid;
  Option.iter (fun a -> i.atime <- a) s.set_atime;
  Option.iter (fun m -> i.mtime <- m) s.set_mtime;
  let* () =
    match s.set_size with
    | None -> Ok ()
    | Some size -> (
        if size < 0 then Error NFS3ERR_INVAL
        else
          match i.kind with
          | Reg f ->
              resize f size;
              i.mtime <- t.now ();
              bump_gen t i;
              Ok ()
          | Dir _ -> Error NFS3ERR_ISDIR
          | Symlink _ -> Error NFS3ERR_INVAL)
  in
  i.ctime <- t.now ();
  Ok (attr_of_inode t i)

let nobody_uid = 65534

let alloc (t : t) (kind : node_kind) ~(cred : Simos.cred) ~(mode : int) : inode =
  let id = t.next_id in
  t.next_id <- t.next_id + 1;
  let time = t.now () in
  (* Anonymous users own nothing: their files belong to "nobody". *)
  let owner v = if v < 0 then nobody_uid else v in
  t.mutation <- t.mutation + 1;
  let i =
    {
      id;
      kind;
      mode;
      uid = owner cred.Simos.cred_uid;
      gid = owner cred.Simos.cred_gid;
      nlink = (match kind with Dir _ -> 2 | Reg _ | Symlink _ -> 1);
      atime = time;
      mtime = time;
      ctime = time;
      gen = t.mutation;
    }
  in
  Hashtbl.replace t.inodes id i;
  i

let add_entry (t : t) (cred : Simos.cred) ~(dir : int) (name : string) (make : unit -> inode) :
    (int * fattr) res =
  let* () = valid_name name in
  let* d = find t dir in
  let* entries = dir_entries d in
  let* () = can_change_dir cred d in
  if Hashtbl.mem entries name then Error NFS3ERR_EXIST
  else begin
    let i = make () in
    Hashtbl.replace entries name i.id;
    (match i.kind with Dir _ -> d.nlink <- d.nlink + 1 | Reg _ | Symlink _ -> ());
    d.mtime <- t.now ();
    d.ctime <- d.mtime;
    Ok (i.id, attr_of_inode t i)
  end

let create_file (t : t) (cred : Simos.cred) ~(dir : int) (name : string) ~(mode : int) : (int * fattr) res =
  add_entry t cred ~dir name (fun () ->
      alloc t (Reg { blocks = [||]; size = 0 }) ~cred ~mode:(mode land 0o7777))

let mkdir (t : t) (cred : Simos.cred) ~(dir : int) (name : string) ~(mode : int) : (int * fattr) res =
  add_entry t cred ~dir name (fun () -> alloc t (Dir (Hashtbl.create 8)) ~cred ~mode:(mode land 0o7777))

let symlink (t : t) (cred : Simos.cred) ~(dir : int) (name : string) ~(target : string) : (int * fattr) res =
  add_entry t cred ~dir name (fun () -> alloc t (Symlink target) ~cred ~mode:0o777)

let write (t : t) (cred : Simos.cred) (id : int) ~(off : int) (data : string) : fattr res =
  let* i = find t id in
  let* () = can_write cred i in
  match i.kind with
  | Dir _ -> Error NFS3ERR_ISDIR
  | Symlink _ -> Error NFS3ERR_INVAL
  | Reg f ->
      if off < 0 then Error NFS3ERR_INVAL
      else begin
        write_blocks f ~off data;
        i.mtime <- t.now ();
        i.ctime <- i.mtime;
        bump_gen t i;
        Ok (attr_of_inode t i)
      end

let drop_inode (t : t) (i : inode) : unit =
  i.nlink <- i.nlink - 1;
  i.ctime <- t.now ();
  if i.nlink <= 0 then Hashtbl.remove t.inodes i.id

let remove (t : t) (cred : Simos.cred) ~(dir : int) (name : string) : unit res =
  let* () = valid_name name in
  let* d = find t dir in
  let* entries = dir_entries d in
  let* () = can_change_dir cred d in
  match Hashtbl.find_opt entries name with
  | None -> Error NFS3ERR_NOENT
  | Some id ->
      let* i = find t id in
      (match i.kind with
      | Dir _ -> Error NFS3ERR_ISDIR
      | Reg _ | Symlink _ ->
          Hashtbl.remove entries name;
          d.mtime <- t.now ();
          d.ctime <- d.mtime;
          drop_inode t i;
          Ok ())

let rmdir (t : t) (cred : Simos.cred) ~(dir : int) (name : string) : unit res =
  let* () = valid_name name in
  let* d = find t dir in
  let* entries = dir_entries d in
  let* () = can_change_dir cred d in
  match Hashtbl.find_opt entries name with
  | None -> Error NFS3ERR_NOENT
  | Some id -> (
      let* i = find t id in
      match i.kind with
      | Reg _ | Symlink _ -> Error NFS3ERR_NOTDIR
      | Dir sub ->
          if Hashtbl.length sub > 0 then Error NFS3ERR_NOTEMPTY
          else begin
            Hashtbl.remove entries name;
            d.nlink <- d.nlink - 1;
            d.mtime <- t.now ();
            d.ctime <- d.mtime;
            i.nlink <- 0;
            Hashtbl.remove t.inodes id;
            Ok ()
          end)

let link (t : t) (cred : Simos.cred) ~(target : int) ~(dir : int) (name : string) : fattr res =
  let* () = valid_name name in
  let* i = find t target in
  let* d = find t dir in
  let* entries = dir_entries d in
  let* () = can_change_dir cred d in
  match i.kind with
  | Dir _ -> Error NFS3ERR_ISDIR
  | Reg _ | Symlink _ ->
      if Hashtbl.mem entries name then Error NFS3ERR_EXIST
      else begin
        Hashtbl.replace entries name i.id;
        i.nlink <- i.nlink + 1;
        i.ctime <- t.now ();
        d.mtime <- t.now ();
        Ok (attr_of_inode t i)
      end

(* Is [candidate] inside the directory subtree rooted at [root_id]? *)
let rec in_subtree (t : t) ~(root_id : int) (candidate : int) : bool =
  root_id = candidate
  ||
  match Hashtbl.find_opt t.inodes root_id with
  | Some { kind = Dir entries; _ } ->
      Hashtbl.fold (fun _ child acc -> acc || in_subtree t ~root_id:child candidate) entries false
  | Some _ | None -> false

let rename (t : t) (cred : Simos.cred) ~(from_dir : int) ~(from_name : string) ~(to_dir : int)
    ~(to_name : string) : unit res =
  let* () = valid_name from_name in
  let* () = valid_name to_name in
  let* fd = find t from_dir in
  let* fentries = dir_entries fd in
  let* () = can_change_dir cred fd in
  let* td = find t to_dir in
  let* tentries = dir_entries td in
  let* () = can_change_dir cred td in
  match Hashtbl.find_opt fentries from_name with
  | None -> Error NFS3ERR_NOENT
  | Some id when Hashtbl.find_opt tentries to_name = Some id ->
      (* Source and destination name the same object: POSIX no-op. *)
      Ok ()
  | Some id ->
      let* i = find t id in
      (* A directory must not move into its own subtree. *)
      let* () =
        match i.kind with
        | Dir _ when in_subtree t ~root_id:id to_dir -> Error NFS3ERR_INVAL
        | Dir _ | Reg _ | Symlink _ -> Ok ()
      in
      let replace_target () =
        match Hashtbl.find_opt tentries to_name with
        | None -> Ok ()
        | Some old_id ->
            let* old = find t old_id in
            (match (i.kind, old.kind) with
            | Dir _, Dir sub when Hashtbl.length sub = 0 ->
                td.nlink <- td.nlink - 1;
                Hashtbl.remove t.inodes old_id;
                Ok ()
            | Dir _, Dir _ -> Error NFS3ERR_NOTEMPTY
            | Dir _, _ -> Error NFS3ERR_NOTDIR
            | _, Dir _ -> Error NFS3ERR_ISDIR
            | _, _ ->
                drop_inode t old;
                Ok ())
      in
      let* () = replace_target () in
      Hashtbl.remove fentries from_name;
      Hashtbl.replace tentries to_name id;
      (match i.kind with
      | Dir _ when from_dir <> to_dir ->
          fd.nlink <- fd.nlink - 1;
          td.nlink <- td.nlink + 1
      | _ -> ());
      let time = t.now () in
      fd.mtime <- time;
      fd.ctime <- time;
      td.mtime <- time;
      td.ctime <- time;
      i.ctime <- time;
      Ok ()

(* --- Statistics and traversal helpers --- *)

type fsstat = { total_files : int; total_bytes : int }

let statfs (t : t) : fsstat =
  let bytes = Hashtbl.fold (fun _ i acc -> acc + node_size i) t.inodes 0 in
  { total_files = Hashtbl.length t.inodes; total_bytes = bytes }

let inode_kind (t : t) (id : int) : node_kind option =
  Option.map (fun i -> i.kind) (Hashtbl.find_opt t.inodes id)

let inode_gen (t : t) (id : int) : int option =
  Option.map (fun i -> i.gen) (Hashtbl.find_opt t.inodes id)
