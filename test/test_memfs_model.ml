(* Model-based testing of Memfs: random operation sequences are applied
   both to the real file system and to a naive reference model (an
   association list of paths); observable results must agree.

   The model covers the namespace and file contents for a single
   superuser credential; permission logic has its own directed tests.
   Writes at offsets and truncations cross 8 KB block boundaries and go
   past the end of the file, and each is observed as the file's whole
   contents after it; the model zero-fills every hole. *)

module Memfs = Sfs_nfs.Memfs
module Nfs_types = Sfs_nfs.Nfs_types
module Simos = Sfs_os.Simos

let root_cred = Simos.cred_of_user Simos.root_user

(* --- The reference model --- *)

type mnode = Mfile of string | Mdir | Msymlink of string

type model = (string list * mnode) list (* path components -> node; root implicit *)

let mlookup (m : model) (p : string list) : mnode option =
  if p = [] then Some Mdir else List.assoc_opt p m

let mchildren (m : model) (p : string list) : string list =
  List.filter_map
    (fun (q, _) ->
      match q with
      | [] -> None
      | _ ->
          let rec prefix a b =
            match (a, b) with
            | [], [ leaf ] -> Some leaf
            | x :: a', y :: b' when x = y -> prefix a' b'
            | _ -> None
          in
          prefix p q)
    m
  |> List.sort_uniq compare

(* --- Operations --- *)

type op =
  | Create of string list * string
  | Mkdir of string list * string
  | Write of string list * string (* append marker content *)
  | Write_at of string list * int * string
  | Truncate of string list * int
  | Read of string list
  | Remove of string list * string
  | Rmdir of string list * string
  | Rename of string list * string * string list * string
  | Lookup of string list * string
  | Readdir of string list

let pp_path p = "/" ^ String.concat "/" p

let pp_op = function
  | Create (p, n) -> Printf.sprintf "create %s/%s" (pp_path p) n
  | Mkdir (p, n) -> Printf.sprintf "mkdir %s/%s" (pp_path p) n
  | Write (p, data) -> Printf.sprintf "write %s (%d bytes)" (pp_path p) (String.length data)
  | Write_at (p, off, data) ->
      Printf.sprintf "write %s at %d (%d bytes)" (pp_path p) off (String.length data)
  | Truncate (p, n) -> Printf.sprintf "truncate %s to %d" (pp_path p) n
  | Read p -> Printf.sprintf "read %s" (pp_path p)
  | Remove (p, n) -> Printf.sprintf "remove %s/%s" (pp_path p) n
  | Rmdir (p, n) -> Printf.sprintf "rmdir %s/%s" (pp_path p) n
  | Rename (p, n, q, m) -> Printf.sprintf "rename %s/%s -> %s/%s" (pp_path p) n (pp_path q) m
  | Lookup (p, n) -> Printf.sprintf "lookup %s/%s" (pp_path p) n
  | Readdir p -> Printf.sprintf "readdir %s" (pp_path p)

(* Generator: paths drawn from a small universe so collisions happen. *)
let names = [ "a"; "b"; "c"; "d" ]

let gen_name = QCheck.Gen.oneofl names

let gen_path : string list QCheck.Gen.t =
  QCheck.Gen.(list_size (int_range 0 2) gen_name)

(* Files are mostly created in the root, and data ops mostly aim at
   the root's entries, so that writes, truncations and reads meet on
   one file. *)
let gen_create_dir : string list QCheck.Gen.t = QCheck.Gen.(frequency [ (1, return []); (1, gen_path) ])

let gen_file_path : string list QCheck.Gen.t =
  QCheck.Gen.(frequency [ (3, map (fun n -> [ n ]) gen_name); (1, gen_path) ])

(* Offsets and sizes near the first two block boundaries, inside the
   first blocks, and out to past three blocks. *)
let gen_offset : int QCheck.Gen.t =
  let open QCheck.Gen in
  frequency
    [
      (2, int_range 0 100);
      (2, oneofl [ 0; 8192; 16384 ]);
      (2, map (fun k -> 8192 + k) (int_range (-40) 40));
      (1, map (fun k -> 16384 + k) (int_range (-40) 40));
      (2, int_range 0 30_000);
    ]

(* Mostly short writes; some fill or nearly fill a block. *)
let gen_data : string QCheck.Gen.t =
  let open QCheck.Gen in
  frequency
    [
      (4, string_size ~gen:printable (int_range 0 64));
      (1, string_size ~gen:printable (int_range 8150 8192));
      (1, string_size ~gen:printable (int_range 8193 9000));
    ]

let gen_op : op QCheck.Gen.t =
  let open QCheck.Gen in
  frequency
    [
      (3, map3 (fun p off d -> Write_at (p, off, d)) gen_file_path gen_offset gen_data);
      (2, map2 (fun p n -> Truncate (p, n)) gen_file_path gen_offset);
      (3, map2 (fun p n -> Create (p, n)) gen_create_dir gen_name);
      (2, map2 (fun p n -> Mkdir (p, n)) gen_path gen_name);
      (3, map2 (fun p s -> Write (p, s)) gen_file_path (string_size ~gen:printable (int_range 0 64)));
      (3, map (fun p -> Read p) gen_file_path);
      (2, map2 (fun p n -> Remove (p, n)) gen_path gen_name);
      (1, map2 (fun p n -> Rmdir (p, n)) gen_path gen_name);
      (1, map (fun ((p, n), (q, m)) -> Rename (p, n, q, m)) (pair (pair gen_path gen_name) (pair gen_path gen_name)));
      (2, map2 (fun p n -> Lookup (p, n)) gen_path gen_name);
      (2, map (fun p -> Readdir p) gen_path);
    ]

(* --- Running ops on the real Memfs --- *)

let resolve (fs : Memfs.t) (p : string list) : int option =
  List.fold_left
    (fun acc name ->
      match acc with
      | None -> None
      | Some dir -> (
          match Memfs.lookup fs root_cred ~dir name with Ok (id, _) -> Some id | Error _ -> None))
    (Some Memfs.root_id) p

(* --- Running ops on the model --- *)

let rec under (p : string list) (q : string list) : bool =
  (* is q strictly under p? *)
  match (p, q) with
  | [], _ :: _ -> true
  | x :: p', y :: q' -> x = y && under p' q'
  | _ -> false

let model_apply (m : model) (op : op) : model * string option =
  (* Returns the new model and an observation string for comparison. *)
  match op with
  | Create (p, n) -> (
      match mlookup m p with
      | Some Mdir when mlookup m (p @ [ n ]) = None -> ((p @ [ n ], Mfile "") :: m, Some "ok")
      | _ -> (m, Some "err"))
  | Mkdir (p, n) -> (
      match mlookup m p with
      | Some Mdir when mlookup m (p @ [ n ]) = None -> ((p @ [ n ], Mdir) :: m, Some "ok")
      | _ -> (m, Some "err"))
  | Write (p, data) -> (
      match mlookup m p with
      | Some (Mfile _) -> (((p, Mfile data) :: List.remove_assoc p m), Some "ok")
      | _ -> (m, Some "err"))
  | Write_at (p, off, data) -> (
      match mlookup m p with
      | Some (Mfile old) ->
          let len = max (String.length old) (off + String.length data) in
          let b = Bytes.make len '\000' in
          Bytes.blit_string old 0 b 0 (String.length old);
          Bytes.blit_string data 0 b off (String.length data);
          let data = Bytes.to_string b in
          (((p, Mfile data) :: List.remove_assoc p m), Some ("data:" ^ data))
      | _ -> (m, Some "err"))
  | Truncate (p, n) -> (
      match mlookup m p with
      | Some (Mfile old) ->
          let cut =
            if n <= String.length old then String.sub old 0 n
            else old ^ String.make (n - String.length old) '\000'
          in
          (((p, Mfile cut) :: List.remove_assoc p m), Some ("data:" ^ cut))
      | _ -> (m, Some "err"))
  | Read p -> (
      match mlookup m p with
      | Some (Mfile data) -> (m, Some ("data:" ^ data))
      | _ -> (m, Some "err"))
  | Remove (p, n) -> (
      let q = p @ [ n ] in
      match (mlookup m p, mlookup m q) with
      | Some Mdir, Some (Mfile _ | Msymlink _) -> (List.remove_assoc q m, Some "ok")
      | _ -> (m, Some "err"))
  | Rmdir (p, n) -> (
      let q = p @ [ n ] in
      match (mlookup m p, mlookup m q) with
      | Some Mdir, Some Mdir when mchildren m q = [] -> (List.remove_assoc q m, Some "ok")
      | _ -> (m, Some "err"))
  | Rename (p, n, q, mm) -> (
      let src = p @ [ n ] and dst = q @ [ mm ] in
      match (mlookup m p, mlookup m q, mlookup m src) with
      | Some Mdir, Some Mdir, Some node ->
          if src = dst then (m, Some "ok")
          else if under src dst then (m, Some "err") (* cannot move under itself *)
          else (
            match (node, mlookup m dst) with
            | _, None ->
                let moved =
                  List.filter_map
                    (fun (path, nd) ->
                      if path = src then Some (dst, nd)
                      else if under src path then
                        let rec redirect s d pp =
                          match (s, pp) with
                          | [], rest -> d @ rest
                          | _ :: s', _ :: pp' -> redirect s' d pp'
                          | _ -> pp
                        in
                        Some (redirect src dst path, nd)
                      else Some (path, nd))
                    m
                in
                (moved, Some "ok")
            | Mfile _, Some (Mfile _ | Msymlink _) ->
                let m = List.remove_assoc dst m in
                let m = List.map (fun (path, nd) -> if path = src then (dst, nd) else (path, nd)) m in
                (m, Some "ok")
            | Mdir, Some Mdir when mchildren m dst = [] ->
                let m = List.remove_assoc dst m in
                let moved =
                  List.filter_map
                    (fun (path, nd) ->
                      if path = src then Some (dst, nd)
                      else if under src path then
                        let rec redirect s d pp =
                          match (s, pp) with
                          | [], rest -> d @ rest
                          | _ :: s', _ :: pp' -> redirect s' d pp'
                          | _ -> pp
                        in
                        Some (redirect src dst path, nd)
                      else Some (path, nd))
                    m
                in
                (moved, Some "ok")
            | _ -> (m, Some "err"))
      | _ -> (m, Some "err"))
  | Lookup (p, n) -> (
      match (mlookup m p, mlookup m (p @ [ n ])) with
      | Some Mdir, Some (Mfile _) -> (m, Some "file")
      | Some Mdir, Some Mdir -> (m, Some "dir")
      | Some Mdir, Some (Msymlink _) -> (m, Some "symlink")
      | _ -> (m, Some "err"))
  | Readdir p -> (
      match mlookup m p with
      | Some Mdir -> (m, Some ("ls:" ^ String.concat "," (mchildren m p)))
      | _ -> (m, Some "err"))

(* A file's whole contents, the observation after a data op. *)
let contents (fs : Memfs.t) (id : int) : string =
  match Memfs.read fs root_cred id ~off:0 ~count:max_int with
  | Ok (data, _) -> "data:" ^ data
  | Error _ -> "err"

let real_apply (fs : Memfs.t) (op : op) : string =
  let dir_of p = resolve fs p in
  match op with
  | Create (p, n) -> (
      match dir_of p with
      | None -> "err"
      | Some d -> (
          match Memfs.create_file fs root_cred ~dir:d n ~mode:0o644 with
          | Ok _ -> "ok"
          | Error _ -> "err"))
  | Mkdir (p, n) -> (
      match dir_of p with
      | None -> "err"
      | Some d -> ( match Memfs.mkdir fs root_cred ~dir:d n ~mode:0o755 with Ok _ -> "ok" | Error _ -> "err"))
  | Write (p, data) -> (
      match dir_of p with
      | None -> "err"
      | Some id -> (
          match Memfs.inode_kind fs id with
          | Some (Memfs.Reg _) -> (
              (* truncate then write, like the model's replace *)
              match Memfs.setattr fs root_cred id { Nfs_types.sattr_empty with Nfs_types.set_size = Some 0 } with
              | Ok _ -> (
                  match Memfs.write fs root_cred id ~off:0 data with Ok _ -> "ok" | Error _ -> "err")
              | Error _ -> "err")
          | _ -> "err"))
  | Write_at (p, off, data) -> (
      match dir_of p with
      | None -> "err"
      | Some id -> (
          match Memfs.inode_kind fs id with
          | Some (Memfs.Reg _) -> (
              match Memfs.write fs root_cred id ~off data with
              | Ok _ -> contents fs id
              | Error _ -> "err")
          | _ -> "err"))
  | Truncate (p, n) -> (
      match dir_of p with
      | None -> "err"
      | Some id -> (
          match Memfs.inode_kind fs id with
          | Some (Memfs.Reg _) -> (
              match Memfs.setattr fs root_cred id { Nfs_types.sattr_empty with Nfs_types.set_size = Some n } with
              | Ok _ -> contents fs id
              | Error _ -> "err")
          | _ -> "err"))
  | Read p -> (
      match dir_of p with
      | None -> "err"
      | Some id -> (
          match Memfs.read fs root_cred id ~off:0 ~count:max_int with
          | Ok (data, _) -> "data:" ^ data
          | Error _ -> "err"))
  | Remove (p, n) -> (
      match dir_of p with
      | None -> "err"
      | Some d -> ( match Memfs.remove fs root_cred ~dir:d n with Ok () -> "ok" | Error _ -> "err"))
  | Rmdir (p, n) -> (
      match dir_of p with
      | None -> "err"
      | Some d -> ( match Memfs.rmdir fs root_cred ~dir:d n with Ok () -> "ok" | Error _ -> "err"))
  | Rename (p, n, q, mm) -> (
      match (dir_of p, dir_of q) with
      | Some fd, Some td -> (
          match Memfs.rename fs root_cred ~from_dir:fd ~from_name:n ~to_dir:td ~to_name:mm with
          | Ok () -> "ok"
          | Error _ -> "err")
      | _ -> "err")
  | Lookup (p, n) -> (
      match dir_of p with
      | None -> "err"
      | Some d -> (
          match Memfs.lookup fs root_cred ~dir:d n with
          | Ok (_, attr) -> (
              match attr.Nfs_types.ftype with
              | Nfs_types.NF_REG -> "file"
              | Nfs_types.NF_DIR -> "dir"
              | Nfs_types.NF_LNK -> "symlink")
          | Error _ -> "err"))
  | Readdir p -> (
      match dir_of p with
      | None -> "err"
      | Some d -> (
          match Memfs.readdir fs root_cred d with
          | Ok entries -> "ls:" ^ String.concat "," (List.map (fun e -> e.Nfs_types.d_name) entries)
          | Error _ -> "err"))

let run_trace (ops : op list) : bool =
  let fs = Memfs.create ~now:(fun () -> { Nfs_types.seconds = 0; nseconds = 0 }) () in
  let rec go m = function
    | [] -> true
    | op :: rest ->
        let m', expected = model_apply m op in
        let got = real_apply fs op in
        if Some got <> expected then (
          let expected = Option.value expected ~default:"-" in
          let rec first i =
            if i < String.length expected && i < String.length got && expected.[i] = got.[i] then first (i + 1)
            else i
          in
          let at = first 0 in
          let near s = String.sub s at (min 16 (String.length s - at)) in
          QCheck.Test.fail_reportf "divergence on %s: model (%d B) and real (%d B) differ at %d: %S vs %S"
            (pp_op op) (String.length expected) (String.length got) at (near expected) (near got))
        else go m' rest
  in
  go [] ops

let model_test =
  QCheck.Test.make ~count:300 ~name:"memfs agrees with reference model"
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
       QCheck.Gen.(list_size (int_range 1 60) gen_op))
    run_trace

let suite = ("memfs-model", Testkit.to_alcotest [ model_test ])
