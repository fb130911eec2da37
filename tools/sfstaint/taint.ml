(* sfstaint — whole-program secret-flow analysis for the SFS tree.

   The paper's thesis is that key management can be separated from
   file system security only if key material provably never crosses
   that separation.  sfslint checks lexical invariants one file at a
   time; this engine checks a global one: no value derived from a
   declared secret may reach the wire, the observability exports, a
   format string or an exception payload without first passing through
   a declassifier (sealing, MACing or hashing).

   The security policy lives in the interfaces, not in this tool:

     val generate : ?bits:int -> Prng.t -> priv  [@@sfs.secret]
         the result of this val is secret (a taint source)

     type session_keys = { kcs : string [@sfs.secret]; ... }
         projecting this field yields a secret, wherever the record
         travelled; [@sfs.public] is the dual (projection is clean
         even from a tainted record — for public halves like a
         keypair's [pub] field)

     val seal : ?bill:bool -> t -> string -> string
       [@@sfs.declassify "ARC4 encryption plus HMAC makes the output safe to emit"]
         the result is public no matter what flowed in; the reason
         string is mandatory and must say why

     val call : conn -> string -> string  [@@sfs.sink "wire"]
         passing tainted data to this val is a leak (kinds: wire,
         obs, format, exception)

     val negotiate : ... -> ((string -> string)[@sfs.sink "wire"]) -> ...
         calling this *parameter* emits on the wire, so inside the
         implementation the callback itself is a sink

   The engine parses every .mli (policy attributes) and .ml (bodies)
   with compiler-libs — the same front-end sfslint uses — builds a
   module-qualified call graph, and runs a fixpoint over per-function
   summaries.  A summary maps argument positions (with record-field
   projection paths) to the return value's taint and records every
   sink event reachable in the body, so taint propagates through
   lets, calls and returns, record/tuple fields, partial application
   and local closures across module boundaries.  Each source→sink
   flow is reported with its full call chain.

   Flows are waived in place, at the sink line or at the line where
   the chain enters the program, with the sfslint pragma machinery:

       (* sfstaint: allow TNT004 — message carries lengths only, never key bytes *)

   Waived flows stay in taint-report.json (with their reason) so the
   committed report is the complete audit surface; only unwaived
   flows and diagnostics gate the build.

   Known limits, by design: no type information (record projections
   key on field names, so secret/public field names should be
   distinctive), no implicit flows (branching on a secret taints
   nothing), and a call through an unannotated function-valued
   parameter conservatively merges taint but does not sink (annotate
   the parameter with [@sfs.sink] to close that hole). *)

open Parsetree

module SMap = Map.Make (String)
module SSet = Set.Make (String)

(* --- taint atoms and values --- *)

type atom =
  | Src of string  (* "Rabin.generate", "Keyneg.kcs" *)
  | Arg of int * string list  (* parameter index + field projection path *)

module Atoms = Set.Make (struct
  type t = atom

  let compare = compare
end)

(* A taint value: its own atoms, per-field taint when the shape is
   known (tuples use "0","1",…; variant payloads use "0"), and a
   function-shaped part for values that can be applied. *)
type tv = { at : Atoms.t; fields : tv SMap.t; fn : fnval option }

and fnval =
  | FDef of string * (Asttypes.arg_label * tv) list
      (* known toplevel function + pending (partially applied) args *)
  | FClosure of closure
  | FSink of string  (* a sink-annotated function parameter; payload = kind *)
  | FOpaque  (* unknown callable; captured taint lives in [at] *)

and closure = {
  c_params : (Asttypes.arg_label * pattern) list;
  c_body : expression;
  c_env : tv SMap.t;
  c_pending : (Asttypes.arg_label * tv) list;
}

let clean = { at = Atoms.empty; fields = SMap.empty; fn = None }
let of_atoms at = { clean with at }
let src_tv id = of_atoms (Atoms.singleton (Src id))

let rec collapse (v : tv) : Atoms.t =
  let base = SMap.fold (fun _ f acc -> Atoms.union acc (collapse f)) v.fields v.at in
  match v.fn with
  | Some (FDef (_, pend)) | Some (FClosure { c_pending = pend; _ }) ->
      List.fold_left (fun acc (_, a) -> Atoms.union acc (collapse a)) base pend
  | _ -> base

(* A partial application carries the taint of the arguments it holds:
   stored in a record or list and called later through an opaque field,
   it still shows what it captured. *)
let pending_atoms (pending : (Asttypes.arg_label * tv) list) : Atoms.t =
  List.fold_left (fun acc (_, a) -> Atoms.union acc (collapse a)) Atoms.empty pending

let max_path = 3
let max_depth = 4
let max_frames = 12
let max_inline = 3
let max_rounds = 20
let max_events = 256

let rec clamp depth (v : tv) : tv =
  if depth <= 0 then of_atoms (collapse v)
  else { v with fields = SMap.map (clamp (depth - 1)) v.fields }

let extend_path (f : string) (at : Atoms.t) : Atoms.t =
  Atoms.map
    (function
      | Src _ as a -> a
      | Arg (i, p) -> if List.length p >= max_path then Arg (i, p) else Arg (i, p @ [ f ]))
    at

let rec join (a : tv) (b : tv) : tv =
  {
    at = Atoms.union a.at b.at;
    fields = SMap.union (fun _ x y -> Some (join x y)) a.fields b.fields;
    fn = (match a.fn with Some _ -> a.fn | None -> b.fn);
  }

(* Summary comparison only needs the data part; the [fn] part never
   survives into a stored summary. *)
let rec compare_tv (a : tv) (b : tv) : int =
  match Atoms.compare a.at b.at with
  | 0 -> SMap.compare compare_tv a.fields b.fields
  | c -> c

(* --- the interface-declared policy --- *)

type policy = {
  mutable sources : SSet.t;  (* "Mod.fn" whose results are secret *)
  mutable field_secret : string SMap.t;  (* field name -> source id *)
  mutable field_public : SSet.t;  (* field names whose projection is clean *)
  mutable declassifiers : string SMap.t;  (* "Mod.fn" -> reason *)
  mutable sinks : string SMap.t;  (* "Mod.fn" -> kind *)
  mutable sink_params : (Asttypes.arg_label * string) list SMap.t;
      (* "Mod.fn" -> sink-annotated parameters (label, kind) *)
}

let empty_policy () =
  {
    sources = SSet.empty;
    field_secret = SMap.empty;
    field_public = SSet.empty;
    declassifiers = SMap.empty;
    sinks = SMap.empty;
    sink_params = SMap.empty;
  }

let sink_kinds = [ "wire"; "obs"; "format"; "exception" ]

let code_of_kind = function
  | "wire" -> "TNT001"
  | "obs" -> "TNT002"
  | "format" -> "TNT003"
  | "exception" -> "TNT004"
  | _ -> "TNT000"

(* TNT000 malformed pragma · TNT001 wire · TNT002 obs · TNT003 format
   · TNT004 exception · TNT005 attribute misuse · TNT006 a secret field's
   name shared with another record *)
let taint_codes = [ "TNT000"; "TNT001"; "TNT002"; "TNT003"; "TNT004"; "TNT005"; "TNT006" ]

type diagnostic = { dg_code : string; dg_file : string; dg_line : int; dg_msg : string }

let compare_diag (a : diagnostic) (b : diagnostic) =
  compare
    (a.dg_file, a.dg_line, a.dg_code, a.dg_msg)
    (b.dg_file, b.dg_line, b.dg_code, b.dg_msg)

(* --- policy extraction from .mli attributes --- *)

let string_payload (attr : attribute) : string option =
  match attr.attr_payload with
  | PStr
      [
        {
          pstr_desc =
            Pstr_eval ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
          _;
        };
      ] ->
      Some s
  | _ -> None

let attr_line (a : attribute) = a.attr_loc.Location.loc_start.Lexing.pos_lnum

type attr_marks = {
  m_secret : bool;
  m_public : bool;
  m_declassify : string option;
  m_sink : string option;
}

let scan_attrs ~(path : string) ~(what : string) (attrs : attributes)
    (diags : diagnostic list ref) : attr_marks =
  let secret = ref false and public = ref false and decl = ref None and sink = ref None in
  List.iter
    (fun (a : attribute) ->
      let bad msg =
        diags :=
          { dg_code = "TNT005"; dg_file = path; dg_line = attr_line a; dg_msg = msg } :: !diags
      in
      match a.attr_name.txt with
      | "sfs.secret" -> secret := true
      | "sfs.public" -> public := true
      | "sfs.declassify" -> (
          match string_payload a with
          | Some r when String.length (String.trim r) >= 8 -> decl := Some (String.trim r)
          | Some _ ->
              bad
                (Printf.sprintf
                   "[@@sfs.declassify] on %s carries a trivial reason; say why the output is public"
                   what)
          | None -> bad (Printf.sprintf "[@@sfs.declassify] on %s needs a reason string" what))
      | "sfs.sink" -> (
          match string_payload a with
          | Some k when List.mem k sink_kinds -> sink := Some k
          | Some k ->
              bad
                (Printf.sprintf "[@@sfs.sink] on %s names unknown kind %S (want %s)" what k
                   (String.concat "/" sink_kinds))
          | None -> bad (Printf.sprintf "[@@sfs.sink] on %s needs a kind string" what))
      | name when String.length name > 4 && String.sub name 0 4 = "sfs." ->
          bad (Printf.sprintf "unknown sfs.* attribute [@%s] on %s" name what)
      | _ -> ())
    attrs;
  { m_secret = !secret; m_public = !public; m_declassify = !decl; m_sink = !sink }

let rec arrow_params (t : core_type) : (Asttypes.arg_label * core_type) list =
  match t.ptyp_desc with
  | Ptyp_arrow (lbl, a, b) -> (lbl, a) :: arrow_params b
  | Ptyp_poly (_, t) -> arrow_params t
  | _ -> []

let module_of_path (path : string) : string =
  String.capitalize_ascii Filename.(remove_extension (basename path))

let scan_interface ~(path : string) (sg : signature) (pol : policy)
    (diags : diagnostic list ref) : unit =
  let m = module_of_path path in
  let rec item prefix (si : signature_item) =
    match si.psig_desc with
    | Psig_value vd ->
        let key = prefix ^ "." ^ vd.pval_name.txt in
        let marks = scan_attrs ~path ~what:("val " ^ key) vd.pval_attributes diags in
        if marks.m_secret then pol.sources <- SSet.add key pol.sources;
        (match marks.m_declassify with
        | Some r -> pol.declassifiers <- SMap.add key r pol.declassifiers
        | None -> ());
        (match marks.m_sink with
        | Some k -> pol.sinks <- SMap.add key k pol.sinks
        | None -> ());
        let sp =
          List.filter_map
            (fun ((lbl : Asttypes.arg_label), ty) ->
              let pm =
                scan_attrs ~path ~what:(Printf.sprintf "a parameter of %s" key)
                  ty.ptyp_attributes diags
              in
              match pm.m_sink with Some k -> Some (lbl, k) | None -> None)
            (arrow_params vd.pval_type)
        in
        if sp <> [] then pol.sink_params <- SMap.add key sp pol.sink_params
    | Psig_type (_, decls) ->
        List.iter
          (fun (td : type_declaration) ->
            match td.ptype_kind with
            | Ptype_record labels ->
                List.iter
                  (fun (ld : label_declaration) ->
                    let fname = ld.pld_name.txt in
                    let what = Printf.sprintf "field %s.%s.%s" prefix td.ptype_name.txt fname in
                    let marks = scan_attrs ~path ~what ld.pld_attributes diags in
                    if marks.m_secret then
                      pol.field_secret <-
                        SMap.add fname (Printf.sprintf "%s.%s" prefix fname) pol.field_secret;
                    if marks.m_public then pol.field_public <- SSet.add fname pol.field_public)
                  labels
            | _ -> ())
          decls
    | Psig_module
        {
          pmd_name = { txt = Some sub; _ };
          pmd_type = { pmty_desc = Pmty_signature sg'; _ };
          _;
        } ->
        List.iter (item (prefix ^ "." ^ sub)) sg'
    | _ -> ()
  in
  List.iter (item m) sg

(* --- the built-in stdlib model --- *)

let builtin_sinks : (string * string) list =
  [
    ("Printf.sprintf", "format");
    ("Printf.printf", "format");
    ("Printf.eprintf", "format");
    ("Printf.fprintf", "format");
    ("Printf.ksprintf", "format");
    ("Format.sprintf", "format");
    ("Format.asprintf", "format");
    ("Format.printf", "format");
    ("Format.eprintf", "format");
    ("Format.fprintf", "format");
    ("print_string", "format");
    ("print_endline", "format");
    ("print_bytes", "format");
    ("prerr_string", "format");
    ("prerr_endline", "format");
    ("prerr_bytes", "format");
    ("failwith", "exception");
    ("invalid_arg", "exception");
    ("raise", "exception");
    ("raise_notrace", "exception");
  ]

(* Pure observers whose results reveal nothing useful to an adversary:
   sizes and comparison verdicts.  (Comparison *timing* is sfslint
   SL001's business, not a data flow.) *)
let builtin_erasers : string list =
  [
    "String.length"; "Bytes.length"; "List.length"; "Array.length"; "Hashtbl.length";
    "Queue.length"; "Buffer.length"; "String.equal"; "String.compare"; "Bytes.equal";
    "Bytes.compare"; "Int.equal"; "Int.compare"; "compare"; "="; "<>"; "<"; ">"; "<=";
    ">="; "=="; "!="; "not"; "ignore";
  ]

(* --- program representation --- *)

type def = {
  d_key : string;  (* "Rabin.sign", "Xdr.Dec.run" *)
  d_module : string;  (* module prefix used for unqualified resolution *)
  d_file : string;
  d_params : (Asttypes.arg_label * pattern) list;
  d_required : int;
  d_body : expression;
  d_aliases : string list SMap.t;
}

type frame = { fr_fn : string; fr_file : string; fr_line : int; fr_callee : string }

type event = {
  ev_kind : string;
  ev_callee : string;
  ev_atoms : Atoms.t;
  ev_frames : frame list;  (* outermost caller first, sink site last *)
}

type summary = {
  s_ret : tv;
  s_events : event list;
  s_writes : (int * tv) list;
      (* mod-ref: taint the body writes through parameter i (buffer
         filling, field assignment) — applied, field-structured, to
         the caller's identifiers *)
}

let empty_summary = { s_ret = clean; s_events = []; s_writes = [] }

let compare_event (a : event) (b : event) =
  match compare (a.ev_kind, a.ev_callee) (b.ev_kind, b.ev_callee) with
  | 0 -> (
      match Atoms.compare a.ev_atoms b.ev_atoms with
      | 0 ->
          compare
            (List.map (fun f -> (f.fr_fn, f.fr_line, f.fr_callee)) a.ev_frames)
            (List.map (fun f -> (f.fr_fn, f.fr_line, f.fr_callee)) b.ev_frames)
      | c -> c)
  | c -> c

let add_event (ev : event) (evs : event list) : event list =
  if List.length evs >= max_events then evs
  else if List.exists (fun e -> compare_event e ev = 0) evs then evs
  else ev :: evs

(* --- identifier resolution --- *)

let lid_flatten (lid : Longident.t) : string list =
  match Longident.flatten lid with l -> l | exception _ -> []

let lid_last (lid : Longident.t) : string =
  match Longident.last lid with s -> s | exception _ -> ""

let starts_with ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

(* Library wrappers (Sfs_crypto.Rabin.sign) collapse to the module
   basename so every compilation unit keys the same canonical way. *)
let strip_wrappers (segs : string list) : string list =
  match segs with
  | w :: (_ :: _ as rest) when starts_with ~prefix:"Sfs_" w -> rest
  | "Stdlib" :: rest -> rest
  | l -> l

let resolve_segments (aliases : string list SMap.t) (segs : string list) : string list =
  let segs =
    match segs with
    | first :: rest -> (
        match SMap.find_opt first aliases with
        | Some expansion -> expansion @ rest
        | None -> segs)
    | [] -> []
  in
  strip_wrappers segs

(* Candidate lookup keys, most specific first: the full dotted path,
   a two-segment suffix (nested modules), and for unqualified names
   the current module's own binding. *)
let candidates (current : string) (segs : string list) : string list =
  match segs with
  | [] -> []
  | [ one ] -> [ current ^ "." ^ one ]
  | _ ->
      let full = String.concat "." segs in
      let n = List.length segs in
      if n > 2 then [ full; String.concat "." (List.filteri (fun i _ -> i >= n - 2) segs) ]
      else [ full ]

(* --- program construction --- *)

type prog = {
  pol : policy;
  defs : (string, def) Hashtbl.t;
  order : string list;
  mutable summaries : summary SMap.t;
}

let rec split_params (e : expression) : (Asttypes.arg_label * pattern) list * expression =
  match e.pexp_desc with
  | Pexp_fun (lbl, _, pat, body) ->
      let rest, body' = split_params body in
      ((lbl, pat) :: rest, body')
  | Pexp_function cases ->
      (* [function] is one-parameter sugar: synthesize the match *)
      let loc = e.pexp_loc in
      let pat = Ast_helper.Pat.var ~loc { txt = "*scrutinee*"; loc } in
      let scrut = Ast_helper.Exp.ident ~loc { txt = Longident.Lident "*scrutinee*"; loc } in
      ([ (Asttypes.Nolabel, pat) ], Ast_helper.Exp.match_ ~loc scrut cases)
  | Pexp_newtype (_, body) -> split_params body
  | Pexp_constraint (e, _) -> split_params e
  | _ -> ([], e)

let required_params (params : (Asttypes.arg_label * pattern) list) : int =
  List.length
    (List.filter
       (fun ((l : Asttypes.arg_label), _) -> match l with Optional _ -> false | _ -> true)
       params)

let pat_name (p : pattern) : string option =
  let rec go p =
    match p.ppat_desc with
    | Ppat_var { txt; _ } -> Some txt
    | Ppat_constraint (p, _) -> go p
    | _ -> None
  in
  go p

let collect_defs ~(path : string) (ast : structure) (defs : (string, def) Hashtbl.t)
    (order : string list ref) : unit =
  let m = module_of_path path in
  let aliases = ref SMap.empty in
  let file_keys = ref [] in
  let add_def key params body =
    if not (Hashtbl.mem defs key) then begin
      let d =
        {
          d_key = key;
          d_module = m;
          d_file = path;
          d_params = params;
          d_required = required_params params;
          d_body = body;
          d_aliases = SMap.empty (* patched below once aliases are complete *);
        }
      in
      Hashtbl.replace defs key d;
      order := key :: !order;
      file_keys := key :: !file_keys;
      (* nested defs are also reachable by their two-segment suffix *)
      match String.split_on_char '.' key with
      | _ :: _ :: _ :: _ as segs ->
          let n = List.length segs in
          let suffix = String.concat "." (List.filteri (fun i _ -> i >= n - 2) segs) in
          if not (Hashtbl.mem defs suffix) then begin
            Hashtbl.replace defs suffix d;
            file_keys := suffix :: !file_keys
          end
      | _ -> ()
    end
  in
  let rec item prefix (si : structure_item) =
    match si.pstr_desc with
    | Pstr_value (_, vbs) ->
        List.iter
          (fun vb ->
            let params, body = split_params vb.pvb_expr in
            match pat_name vb.pvb_pat with
            | Some name -> add_def (prefix ^ "." ^ name) params body
            | None ->
                let line = vb.pvb_loc.Location.loc_start.Lexing.pos_lnum in
                add_def (Printf.sprintf "%s.<init:%d>" prefix line) [] vb.pvb_expr)
          vbs
    | Pstr_eval (e, _) ->
        let line = si.pstr_loc.Location.loc_start.Lexing.pos_lnum in
        add_def (Printf.sprintf "%s.<eval:%d>" prefix line) [] e
    | Pstr_module { pmb_name = { txt = Some sub; _ }; pmb_expr; _ } -> (
        match pmb_expr.pmod_desc with
        | Pmod_structure items -> List.iter (item (prefix ^ "." ^ sub)) items
        | Pmod_ident { txt; _ } ->
            aliases := SMap.add sub (strip_wrappers (lid_flatten txt)) !aliases
        | _ -> ())
    | _ -> ()
  in
  List.iter (item m) ast;
  (* patch the completed alias map into every def of this file *)
  let am = !aliases in
  List.iter
    (fun key ->
      match Hashtbl.find_opt defs key with
      | Some d when d.d_file = path -> Hashtbl.replace defs key { d with d_aliases = am }
      | _ -> ())
    !file_keys

(* --- classification of applied identifiers --- *)

type callee =
  | CEraser
  | CSink of string * string  (* canonical name, kind *)
  | CDeclass of string
  | CDef of def * string option  (* definition, source id when also [@@sfs.secret] *)
  | CSource of string  (* annotated source with no analyzed body *)
  | CUnknown

let classify (p : prog) (current : string) (segs : string list) : callee =
  let rec go = function
    | [] -> (
        let joined = String.concat "." segs in
        if List.mem joined builtin_erasers then CEraser
        else
          match List.assoc_opt joined builtin_sinks with
          | Some kind -> CSink (joined, kind)
          | None -> CUnknown)
    | k :: rest -> (
        match SMap.find_opt k p.pol.sinks with
        | Some kind -> CSink (k, kind)
        | None -> (
            match SMap.find_opt k p.pol.declassifiers with
            | Some _ -> CDeclass k
            | None -> (
                let is_src = SSet.mem k p.pol.sources in
                match Hashtbl.find_opt p.defs k with
                | Some d -> CDef (d, if is_src then Some k else None)
                | None -> if is_src then CSource k else go rest)))
  in
  go (candidates current segs)

(* --- the abstract interpreter --- *)

(* Free identifiers of [body] that are bound in [env]: the closure's
   captured taint.  Over-approximate (ignores shadowing) — but
   projection-aware: capturing [w.clock] out of a record that also
   holds a key captures only the [clock] field's taint, via the
   caller-supplied [project] (which applies field policy). *)
let captured_atoms ~(project : tv -> string -> tv) (env : tv SMap.t) (body : expression) :
    Atoms.t =
  let acc = ref Atoms.empty in
  let rec chain (e : expression) path =
    match e.pexp_desc with
    | Pexp_ident { txt = Longident.Lident x; _ } -> Some (x, path)
    | Pexp_field (b, lid) -> chain b (lid_last lid.Location.txt :: path)
    | _ -> None
  in
  let iter =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          match chain e [] with
          | Some (x, path) when SMap.mem x env ->
              let v = List.fold_left project (SMap.find x env) path in
              acc := Atoms.union !acc (collapse v)
          | Some _ -> ()
          | None -> Ast_iterator.default_iterator.expr self e);
    }
  in
  iter.expr iter body;
  !acc

(* Match call-site arguments to parameter labels: labelled arguments
   by name, unlabelled ones positionally into unlabelled slots.
   Returns the per-slot list of matched payloads, so the same matching
   serves taint values and call-site expressions. *)
let match_slots (labels : Asttypes.arg_label list) (args : (Asttypes.arg_label * 'a) list) :
    'a list array =
  let n = List.length labels in
  let out = Array.make (max n 1) [] in
  let put i x = out.(i) <- out.(i) @ [ x ] in
  let name_of (l : Asttypes.arg_label) =
    match l with Labelled s | Optional s -> Some s | Nolabel -> None
  in
  let slots = Array.of_list (List.map name_of labels) in
  let used = Array.make (max n 1) false in
  let positional = ref [] in
  List.iter
    (fun (lbl, v) ->
      match name_of lbl with
      | Some name ->
          let found = ref false in
          Array.iteri
            (fun i s ->
              if (not !found) && (not used.(i)) && s = Some name then begin
                put i v;
                used.(i) <- true;
                found := true
              end)
            slots
      | None -> positional := v :: !positional)
    args;
  let j = ref 0 in
  List.iter
    (fun v ->
      let placed = ref false in
      while (not !placed) && !j < n do
        if (not used.(!j)) && slots.(!j) = None then begin
          put !j v;
          used.(!j) <- true;
          placed := true
        end;
        incr j
      done;
      (* over-application or label mismatch: spill into the last slot *)
      if (not !placed) && n > 0 then put (n - 1) v)
    (List.rev !positional);
  out

let match_args (labels : Asttypes.arg_label list) (args : (Asttypes.arg_label * tv) list) :
    tv array =
  Array.map (List.fold_left join clean) (match_slots labels args)

(* The local identifier a call can write through — [x], [x.field],
   [(x : t)] — together with the field path below it, so the write
   lands on the touched field rather than poisoning the whole record.
   Writes through anything else are invisible (and mostly covered by
   boundary annotations on the owning module). *)
let havoc_target (ax : expression) : (string * string list) option =
  let rec walk (e : expression) (path : string list) =
    match e.pexp_desc with
    | Pexp_ident { txt = Longident.Lident x; _ } -> Some (x, path)
    | Pexp_field (b, lid) -> walk b (lid_last lid.Location.txt :: path)
    | Pexp_constraint (b, _) -> walk b path
    | _ -> None
  in
  walk ax []

(* Wrap a taint value under a field path: a write through [x.f] is a
   write to field [f] of [x]. *)
let rec nest_fields (path : string list) (v : tv) : tv =
  match path with
  | [] -> v
  | f :: rest -> { clean with fields = SMap.singleton f (nest_fields rest v) }

(* Substitute a summary's Arg atoms with call-site taint.  A
   projection path walks the actual's field map as far as it goes;
   when field information runs out the whole remaining value
   collapses — sound, merely less precise for untracked shapes. *)
let subst_atoms (actuals : tv array) (at : Atoms.t) : Atoms.t =
  Atoms.fold
    (fun a acc ->
      match a with
      | Src _ -> Atoms.add a acc
      | Arg (i, path) ->
          if i >= Array.length actuals then acc
          else
            let rec walk v = function
              | [] -> collapse v
              | f :: rest -> (
                  match SMap.find_opt f v.fields with
                  | Some sub -> walk sub rest
                  | None ->
                      (* untracked field: project the base atoms only —
                         the tracked siblings are exactly what this
                         projection is not *)
                      List.fold_left (fun at g -> extend_path g at) v.at (f :: rest))
            in
            Atoms.union (walk actuals.(i) path) acc)
    at Atoms.empty

let subst_arg_atoms (actuals : tv array) (at : Atoms.t) : Atoms.t =
  subst_atoms actuals (Atoms.filter (function Arg _ -> true | Src _ -> false) at)

let rec subst_tv (actuals : tv array) (v : tv) : tv =
  { at = subst_atoms actuals v.at; fields = SMap.map (subst_tv actuals) v.fields; fn = None }

let analyze_body (p : prog) (d : def) (events : event list ref) : tv * (int * tv) list =
  let current = d.d_module in
  (* Flow-insensitive overlay for mutation through calls and field
     assignment: writes land on the touched field path so a record
     carrying both a key and an obs handle does not cross-contaminate.
     Keyed by local name; reads join the overlay in. *)
  let havoc_tbl : (string, tv) Hashtbl.t = Hashtbl.create 16 in
  let havoc_read name =
    match Hashtbl.find_opt havoc_tbl name with Some v -> v | None -> clean
  in
  let havoc_write name (v : tv) =
    if compare_tv v clean <> 0 then
      Hashtbl.replace havoc_tbl name (clamp max_depth (join (havoc_read name) { v with fn = None }))
  in
  let inline_depth = ref 0 in
  let frame_of ~(loc : Location.t) callee =
    {
      fr_fn = d.d_key;
      fr_file = d.d_file;
      fr_line = loc.Location.loc_start.Lexing.pos_lnum;
      fr_callee = callee;
    }
  in
  (* Function-valued arguments do not leak by being passed (their
     captured secrets only leak if their body reaches a sink, which is
     analyzed separately); everything else collapses. *)
  let sinkable_atoms (args : tv list) : Atoms.t =
    List.fold_left
      (fun acc v -> if v.fn <> None then acc else Atoms.union acc (collapse v))
      Atoms.empty args
  in
  let record_sink ~loc ~kind ~callee (args : tv list) =
    let atoms = sinkable_atoms args in
    if not (Atoms.is_empty atoms) then
      events :=
        add_event
          {
            ev_kind = kind;
            ev_callee = callee;
            ev_atoms = atoms;
            ev_frames = [ frame_of ~loc callee ];
          }
          !events
  in
  let propagate_events ~loc (callee_key : string) (sum : summary) (actuals : tv array) =
    List.iter
      (fun ev ->
        let has_arg = Atoms.exists (function Arg _ -> true | Src _ -> false) ev.ev_atoms in
        if has_arg && List.length ev.ev_frames < max_frames then
          let atoms' = subst_arg_atoms actuals ev.ev_atoms in
          if not (Atoms.is_empty atoms') then
            events :=
              add_event
                { ev with ev_atoms = atoms'; ev_frames = frame_of ~loc callee_key :: ev.ev_frames }
                !events)
      sum.s_events
  in
  let project (v : tv) (fname : string) : tv =
    if SSet.mem fname p.pol.field_public then clean
    else
      let fv =
        match SMap.find_opt fname v.fields with
        | Some sub -> sub
        | None -> of_atoms (extend_path fname v.at)
      in
      match SMap.find_opt fname p.pol.field_secret with
      | Some src -> join fv (src_tv src)
      | None -> fv
  in
  let rec bind_pat (env : tv SMap.t ref) (pat : pattern) (v : tv) : unit =
    match pat.ppat_desc with
    | Ppat_var { txt; _ } -> env := SMap.add txt v !env
    | Ppat_alias (pt, { txt; _ }) ->
        env := SMap.add txt v !env;
        bind_pat env pt v
    | Ppat_constraint (pt, _) -> bind_pat env pt v
    | Ppat_tuple ps -> List.iteri (fun i pt -> bind_pat env pt (project v (string_of_int i))) ps
    | Ppat_record (fields, _) ->
        List.iter
          (fun ((lid : Longident.t Location.loc), pt) ->
            bind_pat env pt (project v (lid_last lid.Location.txt)))
          fields
    | Ppat_construct (_, Some (_, pt)) | Ppat_variant (_, Some pt) ->
        bind_pat env pt (project v "0")
    | Ppat_or (a, b) ->
        bind_pat env a v;
        bind_pat env b v
    | Ppat_open (_, pt) | Ppat_lazy pt | Ppat_exception pt -> bind_pat env pt v
    | _ -> ()
  in
  let rec eval (env : tv SMap.t) (e : expression) : tv =
    match e.pexp_desc with
    | Pexp_constant _ -> clean
    | Pexp_ident { txt = Longident.Lident x; _ } when SMap.mem x env ->
        join (SMap.find x env) (havoc_read x)
    | Pexp_ident { txt; _ } -> ident_value (resolve_segments d.d_aliases (lid_flatten txt))
    | Pexp_apply (f, args) -> eval_apply env ~loc:e.pexp_loc f args
    | Pexp_let (_, vbs, body) ->
        let env' = ref env in
        List.iter
          (fun vb ->
            let v = eval !env' vb.pvb_expr in
            bind_pat env' vb.pvb_pat v)
          vbs;
        eval !env' body
    | Pexp_fun _ | Pexp_function _ | Pexp_newtype _ ->
        let params, body = split_params e in
        (* catch sinks on captured secrets even if never applied here *)
        let env' = ref env in
        List.iter (fun (_, pat) -> bind_pat env' pat clean) params;
        ignore (eval !env' body);
        {
          clean with
          at = captured_atoms ~project env body;
          fn = Some (FClosure { c_params = params; c_body = body; c_env = env; c_pending = [] });
        }
    | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
        let sv = eval env scrut in
        List.fold_left
          (fun acc c ->
            let env' = ref env in
            bind_pat env' c.pc_lhs sv;
            (match c.pc_guard with Some g -> ignore (eval !env' g) | None -> ());
            join acc (eval !env' c.pc_rhs))
          clean cases
    | Pexp_ifthenelse (c, t, e') ->
        ignore (eval env c);
        let a = eval env t in
        let b = match e' with Some x -> eval env x | None -> clean in
        join a b
    | Pexp_sequence (a, b) ->
        ignore (eval env a);
        eval env b
    | Pexp_tuple es ->
        let _, fields =
          List.fold_left
            (fun (i, acc) x -> (i + 1, SMap.add (string_of_int i) (eval env x) acc))
            (0, SMap.empty) es
        in
        clamp max_depth { clean with fields }
    | Pexp_record (fields, base) ->
        let base_tv = match base with Some b -> eval env b | None -> clean in
        let fmap =
          List.fold_left
            (fun acc ((lid : Longident.t Location.loc), x) ->
              SMap.add (lid_last lid.Location.txt) (eval env x) acc)
            base_tv.fields fields
        in
        clamp max_depth { at = base_tv.at; fields = fmap; fn = None }
    | Pexp_field (x, lid) -> project (eval env x) (lid_last lid.Location.txt)
    | Pexp_setfield (x, lid, v) ->
        ignore (eval env x);
        let vv = eval env v in
        (match havoc_target x with
        | Some (name, path) when SMap.mem name env ->
            havoc_write name (nest_fields (path @ [ lid_last lid.Location.txt ]) vv)
        | _ -> ());
        clean
    | Pexp_construct (_, arg) | Pexp_variant (_, arg) -> (
        match arg with
        | None -> clean
        | Some x ->
            let xv = eval env x in
            clamp max_depth { clean with fields = SMap.singleton "0" xv })
    | Pexp_constraint (x, _) | Pexp_coerce (x, _, _) | Pexp_lazy x | Pexp_assert x
    | Pexp_open (_, x) ->
        eval env x
    | Pexp_letmodule (_, _, body) | Pexp_letexception (_, body) -> eval env body
    | Pexp_while (c, body) ->
        ignore (eval env c);
        ignore (eval env body);
        clean
    | Pexp_for (pat, lo, hi, _, body) ->
        ignore (eval env lo);
        ignore (eval env hi);
        let env' = ref env in
        bind_pat env' pat clean;
        ignore (eval !env' body);
        clean
    | Pexp_array es ->
        List.fold_left (fun acc x -> join acc (of_atoms (collapse (eval env x)))) clean es
    | _ -> clean
  and ident_value (segs : string list) : tv =
    match classify p current segs with
    | CEraser | CDeclass _ ->
        (* a declassifier or eraser used as a value: applying it later
           yields clean output, which atom-free FOpaque models *)
        { clean with fn = Some FOpaque }
    | CSink (_, kind) -> { clean with fn = Some (FSink kind) }
    | CSource id -> src_tv id
    | CDef (def, src) ->
        if def.d_params = [] then begin
          let sum = try SMap.find def.d_key p.summaries with Not_found -> empty_summary in
          let base = sum.s_ret in
          match src with Some id -> join base (src_tv id) | None -> base
        end
        else { clean with fn = Some (FDef (def.d_key, [])) }
    | CUnknown -> clean
  and eval_apply env ~loc (f : expression) (args : (Asttypes.arg_label * expression) list) : tv =
    match (f.pexp_desc, args) with
    (* pipeline operators re-associate into plain application *)
    | Pexp_ident { txt = Longident.Lident "|>"; _ }, [ (_, x); (_, g) ] ->
        eval_apply env ~loc g [ (Asttypes.Nolabel, x) ]
    | Pexp_ident { txt = Longident.Lident "@@"; _ }, [ (_, g); (_, x) ] ->
        eval_apply env ~loc g [ (Asttypes.Nolabel, x) ]
    | _ ->
        let argvs = List.map (fun (l, x) -> (l, eval env x)) args in
        (* Unknown callees may write through any mutable argument;
           analyzed callees instead report exactly which parameters
           they write (s_writes), so sibling handles stay independent. *)
        let havoc_args callee_atoms =
          let atoms =
            List.fold_left (fun acc (_, v) -> Atoms.union acc (collapse v)) callee_atoms argvs
          in
          List.iter
            (fun (_, (ax : expression)) ->
              match havoc_target ax with
              | Some (name, path) when SMap.mem name env ->
                  havoc_write name (nest_fields path (of_atoms atoms))
              | _ -> ())
            args
        in
        (* A partial application takes its callee's events and writes on
           the arguments it holds where it is built, as a closure's body
           is evaluated where the closure is built, and the value
           carries those arguments' taint: stored in a record and called
           later through an opaque field, it still shows what it
           captured. *)
        let apply_def (def_key : string) (pending : (Asttypes.arg_label * tv) list) src =
          match Hashtbl.find_opt p.defs def_key with
          | None -> clean
          | Some def ->
              let all = pending @ argvs in
              let labels = List.map fst def.d_params in
              let actuals = match_args labels all in
              let sum = try SMap.find def_key p.summaries with Not_found -> empty_summary in
              propagate_events ~loc def_key sum actuals;
              (* apply the callee's writes-through-parameter effects to
                 the caller identifiers that landed in those slots *)
              if sum.s_writes <> [] then begin
                let expr_slots =
                  match_slots labels
                    (List.map (fun (l, _) -> (l, None)) pending
                    @ List.map (fun (l, ax) -> (l, Some ax)) args)
                in
                List.iter
                  (fun (i, wtv) ->
                    if i < Array.length expr_slots then
                      let wtv' = subst_tv actuals wtv in
                      if compare_tv wtv' clean <> 0 then
                        List.iter
                          (function
                            | Some ax -> (
                                match havoc_target ax with
                                | Some (name, path) when SMap.mem name env ->
                                    havoc_write name (nest_fields path wtv')
                                | _ -> ())
                            | None -> ())
                          expr_slots.(i))
                  sum.s_writes
              end;
              if List.length all < def.d_required then
                { (of_atoms (pending_atoms all)) with fn = Some (FDef (def_key, all)) }
              else
                let ret = subst_tv actuals sum.s_ret in
                match src with Some id -> join ret (src_tv id) | None -> ret
        in
        let apply_closure (c : closure) =
          let all = c.c_pending @ argvs in
          if List.length all < required_params c.c_params then
            { (of_atoms (pending_atoms all)) with fn = Some (FClosure { c with c_pending = all }) }
          else if !inline_depth >= max_inline then begin
            havoc_args Atoms.empty;
            of_atoms
              (List.fold_left
                 (fun acc (_, v) -> Atoms.union acc (collapse v))
                 (captured_atoms ~project c.c_env c.c_body)
                 all)
          end
          else begin
            incr inline_depth;
            let actuals = match_args (List.map fst c.c_params) all in
            let env' = ref c.c_env in
            List.iteri (fun i (_, pat) -> bind_pat env' pat actuals.(i)) c.c_params;
            let r = eval !env' c.c_body in
            decr inline_depth;
            r
          end
        in
        let apply_fv (fv : tv) =
          match fv.fn with
          | Some (FDef (key, pending)) -> apply_def key pending None
          | Some (FClosure c) -> apply_closure c
          | Some (FSink kind) ->
              (* the sink's result still carries the data (sprintf!) *)
              record_sink ~loc ~kind ~callee:"<callback>" (List.map snd argvs);
              of_atoms (sinkable_atoms (List.map snd argvs))
          | Some FOpaque | None ->
              (* unknown callable: the result carries everything, and
                 the call may write through any mutable argument *)
              let atoms =
                List.fold_left
                  (fun acc (_, v) -> Atoms.union acc (collapse v))
                  (collapse fv) argvs
              in
              havoc_args (collapse fv);
              of_atoms atoms
        in
        let direct =
          match f.pexp_desc with
          | Pexp_ident { txt = Longident.Lident x; _ } when SMap.mem x env -> None
          | Pexp_ident { txt; _ } ->
              Some (classify p current (resolve_segments d.d_aliases (lid_flatten txt)))
          | _ -> None
        in
        (match direct with
        | Some CEraser -> clean
        | Some (CDeclass _) -> clean (* trusted boundary: args in, nothing out *)
        | Some (CSink (name, kind)) ->
            (* the sink's result still carries the data (sprintf!) *)
            record_sink ~loc ~kind ~callee:name (List.map snd argvs);
            of_atoms (sinkable_atoms (List.map snd argvs))
        | Some (CSource id) ->
            havoc_args Atoms.empty;
            src_tv id
        | Some (CDef (def, src)) -> apply_def def.d_key [] src
        | Some CUnknown ->
            let atoms =
              List.fold_left (fun acc (_, v) -> Atoms.union acc (collapse v)) Atoms.empty argvs
            in
            havoc_args Atoms.empty;
            of_atoms atoms
        | None -> apply_fv (eval env f))
  in
  (* Bind declared parameters: Arg atoms, destructured through the
     pattern; a parameter the .mli marks [@sfs.sink] binds to a sink
     function instead (matched by label, or — for the unlabelled case
     — assigned to the last unlabelled parameter, the conventional
     position for callbacks). *)
  let sink_params = SMap.find_opt d.d_key p.pol.sink_params in
  let last_nolabel =
    let rec last acc j = function
      | [] -> acc
      | ((l : Asttypes.arg_label), _) :: tl -> last (if l = Nolabel then j else acc) (j + 1) tl
    in
    last (-1) 0 d.d_params
  in
  let env = ref SMap.empty in
  List.iteri
    (fun i ((lbl : Asttypes.arg_label), pat) ->
      let as_sink =
        match sink_params with
        | None -> None
        | Some sp -> (
            match lbl with
            | Nolabel ->
                if i = last_nolabel then
                  List.find_map
                    (fun ((l : Asttypes.arg_label), kind) ->
                      if l = Nolabel then Some kind else None)
                    sp
                else None
            | _ -> List.find_map (fun (l, kind) -> if l = lbl then Some kind else None) sp)
      in
      match as_sink with
      | Some kind -> bind_pat env pat { clean with fn = Some (FSink kind) }
      | None -> bind_pat env pat (of_atoms (Atoms.singleton (Arg (i, [])))))
    d.d_params;
  let ret = eval !env d.d_body in
  (* mod-ref: whatever the body havocked onto a simple parameter name
     is a write the caller must see through that argument *)
  let writes =
    List.concat
      (List.mapi
         (fun i ((_ : Asttypes.arg_label), pat) ->
           match pat_name pat with
           | Some n -> (
               match Hashtbl.find_opt havoc_tbl n with
               | Some v when compare_tv v clean <> 0 -> [ (i, v) ]
               | _ -> [])
           | None -> [])
         d.d_params)
  in
  (ret, writes)

(* --- fixpoint --- *)

let max_rounds_reached = ref false

let merge_writes (a : (int * tv) list) (b : (int * tv) list) : (int * tv) list =
  let idxs = List.sort_uniq compare (List.map fst a @ List.map fst b) in
  List.map
    (fun i ->
      let get l = match List.assoc_opt i l with Some x -> x | None -> clean in
      (i, clamp max_depth (join (get a) (get b))))
    idxs

let equal_writes (a : (int * tv) list) (b : (int * tv) list) : bool =
  List.length a = List.length b
  && List.for_all2 (fun (i, x) (j, y) -> i = j && compare_tv x y = 0) a b

let run_fixpoint (p : prog) : unit =
  let round = ref 0 in
  let changed = ref true in
  while !changed && !round < max_rounds do
    changed := false;
    incr round;
    List.iter
      (fun key ->
        match Hashtbl.find_opt p.defs key with
        | None -> ()
        | Some d when d.d_key <> key -> () (* suffix alias; analyzed under its full key *)
        | Some d ->
            let events = ref [] in
            let ret, writes = analyze_body p d events in
            let ret = clamp max_depth ret in
            let old = try SMap.find key p.summaries with Not_found -> empty_summary in
            let ret' = join old.s_ret { ret with fn = None } in
            let evs = List.fold_left (fun acc e -> add_event e acc) old.s_events !events in
            let writes' = merge_writes old.s_writes writes in
            if
              compare_tv ret' old.s_ret <> 0
              || List.length evs <> List.length old.s_events
              || not (equal_writes writes' old.s_writes)
            then begin
              changed := true;
              p.summaries <-
                SMap.add key { s_ret = ret'; s_events = evs; s_writes = writes' } p.summaries
            end)
      p.order
  done;
  max_rounds_reached := !changed

(* --- flows, waivers, reports --- *)

type flow = {
  f_code : string;
  f_kind : string;
  f_sink : string;
  f_source : string;
  f_file : string;  (* where the chain starts (entry frame) *)
  f_line : int;
  f_chain : frame list;
  f_waived : bool;
  f_reason : string;
}

let compare_flow (a : flow) (b : flow) =
  compare
    ( a.f_file,
      a.f_line,
      a.f_code,
      a.f_source,
      a.f_sink,
      List.map (fun f -> (f.fr_file, f.fr_line, f.fr_fn, f.fr_callee)) a.f_chain )
    ( b.f_file,
      b.f_line,
      b.f_code,
      b.f_source,
      b.f_sink,
      List.map (fun f -> (f.fr_file, f.fr_line, f.fr_fn, f.fr_callee)) b.f_chain )

type report = {
  r_files : int;
  r_sources : string list;
  r_flows : flow list;
  r_diags : diagnostic list;
}

(* Waivers reuse sfslint's pragma scanner, instantiated for this tool.
   A pragma covers the sink line or the chain's entry line (same line
   or the line directly above), must name the TNT code, and must carry
   a justification — a bare sfstaint pragma never waives. *)
let pragmas_of_source (src : string) : Sfslint_core.Lint.pragma list =
  Sfslint_core.Lint.scan_pragmas_for ~tool:"sfstaint" ~prefix:"TNT" ~known:taint_codes src

let pragma_diags (path : string) (pragmas : Sfslint_core.Lint.pragma list) : diagnostic list =
  List.filter_map
    (fun (pr : Sfslint_core.Lint.pragma) ->
      match pr.p_malformed with
      | Some msg ->
          Some { dg_code = "TNT000"; dg_file = path; dg_line = pr.p_line_start; dg_msg = msg }
      | None ->
          if pr.p_bare then
            Some
              {
                dg_code = "TNT000";
                dg_file = path;
                dg_line = pr.p_line_start;
                dg_msg = "sfstaint pragma carries no justification";
              }
          else None)
    pragmas

let find_waiver (by_file : Sfslint_core.Lint.pragma list SMap.t) (fl : flow) : string option =
  let covers file line =
    match SMap.find_opt file by_file with
    | None -> None
    | Some prs ->
        List.find_map
          (fun (pr : Sfslint_core.Lint.pragma) ->
            if
              (not pr.p_bare) && pr.p_malformed = None
              && List.mem fl.f_code pr.p_codes
              && line >= pr.p_line_start
              && line <= pr.p_line_end + 1
            then Some pr.p_reason
            else None)
          prs
  in
  match fl.f_chain with
  | [] -> None
  | entry :: _ -> (
      let sink = List.nth fl.f_chain (List.length fl.f_chain - 1) in
      match covers sink.fr_file sink.fr_line with
      | Some _ as r -> r
      | None -> covers entry.fr_file entry.fr_line)

(* --- secret field names ---

   A projection [e.f] is matched against [field_secret] by the bare
   name [f]: the analysis has no types.  So a field marked secret must
   be the only record field of its name, or every same-named field of
   another record reads as that secret.  Each record field is
   (owner "Module.type", name, file, line, marked secret). *)

let record_fields ~(path : string) (visit : Ast_iterator.iterator -> unit) :
    (string * string * string * int * bool) list =
  let acc = ref [] in
  let m = module_of_path path in
  let type_declaration self (td : type_declaration) =
    (match td.ptype_kind with
    | Ptype_record labels ->
        List.iter
          (fun (ld : label_declaration) ->
            let secret =
              List.exists (fun (a : attribute) -> a.attr_name.txt = "sfs.secret") ld.pld_attributes
            in
            acc :=
              ( m ^ "." ^ td.ptype_name.txt,
                ld.pld_name.txt,
                path,
                ld.pld_loc.Location.loc_start.Lexing.pos_lnum,
                secret )
              :: !acc)
          labels
    | _ -> ());
    Ast_iterator.default_iterator.type_declaration self td
  in
  visit { Ast_iterator.default_iterator with type_declaration };
  !acc

(* TNT006 at every field that shares its name with another record's
   secret field.  An .ml that repeats its .mli's record repeats its
   owner, so it is no collision. *)
let shared_secret_names (fields : (string * string * string * int * bool) list) : diagnostic list =
  List.filter_map
    (fun (owner, name, file, line, _) ->
      let owners = List.filter_map (fun (o, n, _, _, s) -> if s && n = name then Some o else None) fields in
      match owners with
      | secret_owner :: _ when not (List.mem owner owners) ->
          Some
            {
              dg_code = "TNT006";
              dg_file = file;
              dg_line = line;
              dg_msg =
                Printf.sprintf
                  "field %s of %s shares its name with the secret field %s of %s: fields match by name, so \
                   reading it reads as that secret; rename one of them"
                  name owner name secret_owner;
            }
      | _ -> None)
    fields

(* Full analysis over in-memory sources; the CLI reads files into this
   same entry point, and the test suite feeds synthetic fixtures. *)
let analyze ~(intfs : (string * string) list) ~(impls : (string * string) list) () :
    (report, string) result =
  let pol = empty_policy () in
  let diags = ref [] in
  let defs = Hashtbl.create 256 in
  let order = ref [] in
  let err = ref None in
  let fields = ref [] in
  let intfs = List.sort compare intfs and impls = List.sort compare impls in
  List.iter
    (fun (path, source) ->
      if !err = None then
        let lexbuf = Lexing.from_string source in
        Lexing.set_filename lexbuf path;
        match Parse.interface lexbuf with
        | sg ->
            scan_interface ~path sg pol diags;
            fields := record_fields ~path (fun it -> it.signature it sg) @ !fields
        | exception e ->
            err :=
              Some
                (Printf.sprintf "%s: %s" path
                   (match Location.error_of_exn e with
                   | Some (`Ok r) -> Format.asprintf "%a" Location.print_report r
                   | _ -> Printexc.to_string e)))
    intfs;
  List.iter
    (fun (path, source) ->
      if !err = None then
        match Sfslint_core.Lint.parse_implementation ~path source with
        | Ok ast ->
            collect_defs ~path ast defs order;
            fields := record_fields ~path (fun it -> it.structure it ast) @ !fields
        | Error msg -> err := Some (Printf.sprintf "%s: parse error:\n%s" path msg))
    impls;
  match !err with
  | Some msg -> Error msg
  | None ->
      diags := shared_secret_names !fields @ !diags;
      let prog = { pol; defs; order = List.rev !order; summaries = SMap.empty } in
      run_fixpoint prog;
      (* pragma scan per implementation file *)
      let by_file =
        List.fold_left
          (fun acc (path, source) ->
            let prs = pragmas_of_source source in
            diags := pragma_diags path prs @ !diags;
            SMap.add path prs acc)
          SMap.empty impls
      in
      (* extract flows: every sink event whose atoms include a source *)
      (if Sys.getenv_opt "SFSTAINT_DEBUG" <> None then
         let show_atom = function
           | Src id -> "Src " ^ id
           | Arg (i, p) -> Printf.sprintf "Arg %d[%s]" i (String.concat "." p)
         in
         List.iter
           (fun key ->
             match SMap.find_opt key prog.summaries with
             | None -> ()
             | Some sum ->
                 List.iter
                   (fun ev ->
                     Printf.eprintf "DBG %s: %s %s atoms={%s} frames=%s\n" key ev.ev_kind
                       ev.ev_callee
                       (String.concat ", " (List.map show_atom (Atoms.elements ev.ev_atoms)))
                       (String.concat " <- "
                          (List.map (fun fr -> Printf.sprintf "%s:%d" fr.fr_fn fr.fr_line)
                             ev.ev_frames)))
                   sum.s_events)
           prog.order);
      let flows = ref [] in
      List.iter
        (fun key ->
          match SMap.find_opt key prog.summaries with
          | None -> ()
          | Some sum ->
              List.iter
                (fun ev ->
                  Atoms.iter
                    (function
                      | Arg _ -> ()
                      | Src id ->
                          let entry =
                            match ev.ev_frames with
                            | fr :: _ -> fr
                            | [] -> { fr_fn = key; fr_file = "?"; fr_line = 0; fr_callee = "?" }
                          in
                          let fl =
                            {
                              f_code = code_of_kind ev.ev_kind;
                              f_kind = ev.ev_kind;
                              f_sink = ev.ev_callee;
                              f_source = id;
                              f_file = entry.fr_file;
                              f_line = entry.fr_line;
                              f_chain = ev.ev_frames;
                              f_waived = false;
                              f_reason = "";
                            }
                          in
                          let fl =
                            match find_waiver by_file fl with
                            | Some reason -> { fl with f_waived = true; f_reason = reason }
                            | None -> fl
                          in
                          flows := fl :: !flows)
                    ev.ev_atoms)
                (List.sort compare_event sum.s_events))
        prog.order;
      let sources =
        SSet.elements
          (SSet.union pol.sources
             (SMap.fold (fun _ id acc -> SSet.add id acc) pol.field_secret SSet.empty))
      in
      Ok
        {
          r_files = List.length intfs + List.length impls;
          r_sources = sources;
          r_flows = List.sort_uniq compare_flow !flows;
          r_diags = List.sort_uniq compare_diag !diags;
        }

let unwaived (r : report) : flow list = List.filter (fun f -> not f.f_waived) r.r_flows

(* --- rendering --- *)

let je = Sfslint_core.Lint.json_escape

let render_frame (fr : frame) : string =
  Printf.sprintf {|{"fn":"%s","file":"%s","line":%d,"callee":"%s"}|} (je fr.fr_fn)
    (je fr.fr_file) fr.fr_line (je fr.fr_callee)

let render_flow_json (f : flow) : string =
  let reason = if f.f_waived then Printf.sprintf {|,"reason":"%s"|} (je f.f_reason) else "" in
  Printf.sprintf
    {|{"code":"%s","kind":"%s","source":"%s","sink":"%s","file":"%s","line":%d,"waived":%b%s,"chain":[%s]}|}
    (je f.f_code) (je f.f_kind) (je f.f_source) (je f.f_sink) (je f.f_file) f.f_line f.f_waived
    reason
    (String.concat "," (List.map render_frame f.f_chain))

let render_diag_json (dg : diagnostic) : string =
  Printf.sprintf {|{"code":"%s","file":"%s","line":%d,"message":"%s"}|} (je dg.dg_code)
    (je dg.dg_file) dg.dg_line (je dg.dg_msg)

let report_json (r : report) : string =
  let flows = List.sort compare_flow r.r_flows in
  let diags = List.sort compare_diag r.r_diags in
  let counts =
    List.filter_map
      (fun code ->
        let n =
          List.length (List.filter (fun f -> f.f_code = code) flows)
          + List.length (List.filter (fun dg -> dg.dg_code = code) diags)
        in
        if n = 0 then None else Some (Printf.sprintf {|"%s":%d|} code n))
      taint_codes
  in
  Printf.sprintf
    {|{"tool":"sfstaint","version":1,"files_analyzed":%d,"secret_sources":[%s],"total_flows":%d,"unwaived_flows":%d,"diagnostics_count":%d,"counts":{%s},"flows":[%s],"diagnostics":[%s]}|}
    r.r_files
    (String.concat "," (List.map (fun s -> Printf.sprintf {|"%s"|} (je s)) r.r_sources))
    (List.length flows)
    (List.length (unwaived r))
    (List.length diags)
    (String.concat "," counts)
    (String.concat "," (List.map render_flow_json flows))
    (String.concat "," (List.map render_diag_json diags))

let render_flow_text (f : flow) : string =
  let chain =
    String.concat "\n"
      (List.map
         (fun fr ->
           Printf.sprintf "    %s:%d: %s -> %s" fr.fr_file fr.fr_line fr.fr_fn fr.fr_callee)
         f.f_chain)
  in
  Printf.sprintf "%s:%d: %s %s: secret %s reaches %s sink %s%s\n%s" f.f_file f.f_line f.f_code
    (if f.f_waived then "waived" else "flow")
    f.f_source f.f_kind f.f_sink
    (if f.f_waived then Printf.sprintf " (%s)" f.f_reason else "")
    chain

let render_flow_github (f : flow) : string =
  Printf.sprintf "::error file=%s,line=%d,title=%s::secret %s reaches %s sink %s" f.f_file
    f.f_line f.f_code f.f_source f.f_kind f.f_sink

let render_diag_text (dg : diagnostic) : string =
  Printf.sprintf "%s:%d: %s %s" dg.dg_file dg.dg_line dg.dg_code dg.dg_msg
