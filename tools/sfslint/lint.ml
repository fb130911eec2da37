(* sfslint — AST-based invariant linter for the SFS tree.

   The security argument of SFS rests on invariants the type system
   cannot see: secrets must be compared in constant time, all entropy
   must flow through the seeded PRNG, and the simulated network/clock
   must stay deterministic so protocol runs are reproducible.  This
   engine parses each .ml file into a Parsetree (compiler-libs) and
   runs a small rule set over it; violations carry a code (SL001…), a
   file:line span and a fix-it hint.

   A violation can be waived in place with a pragma comment on the
   same line or the line directly above:

       (* sfslint: allow SL003 — OS-entropy fallback for demo binaries *)

   Pragmas must name a known rule code and carry a justification;
   malformed pragmas are themselves reported (SL000), and a pragma
   whose tail carries no justification text is reported (SL011) and
   does not suppress anything.  The pragma machinery is parameterized
   by tool name and code alphabet so sfstaint reuses it for its
   TNTxxx waivers.

   Rule applicability keys on repo-relative paths ("lib/crypto/mac.ml"),
   so the engine can be driven both by the CLI walking the tree and by
   the self-test suite feeding synthetic sources under synthetic
   paths. *)

open Parsetree

type diagnostic = {
  code : string;
  file : string;
  line : int;
  col : int;
  message : string;
  hint : string;
}

type rule_info = { ri_code : string; ri_title : string; ri_hint : string }

let rules : rule_info list =
  [
    {
      ri_code = "SL000";
      ri_title = "malformed sfslint pragma";
      ri_hint = "write (* sfslint: allow SLxxx — reason *) with a known code and a justification";
    };
    {
      ri_code = "SL001";
      ri_title = "non-constant-time comparison of string/bytes values";
      ri_hint = "use Sfs_util.Bytesutil.ct_equal for anything secret-shaped";
    };
    {
      ri_code = "SL002";
      ri_title = "Stdlib.Random outside lib/crypto/prng.ml";
      ri_hint = "draw entropy from a seeded Sfs_crypto.Prng.t instead";
    };
    {
      ri_code = "SL003";
      ri_title = "wall-clock access outside lib/net/simclock.ml";
      ri_hint = "read simulated time from Sfs_net.Simclock to keep runs reproducible";
    };
    {
      ri_code = "SL004";
      ri_title = "exception-throwing decode path";
      ri_hint = "decoders must return result/option; use Xdr.error (caught by Xdr.run) for wire errors";
    };
    {
      ri_code = "SL005";
      ri_title = "module-toplevel mutable state";
      ri_hint = "construct mutable state inside create/make functions so runs stay independent";
    };
    {
      ri_code = "SL006";
      ri_title = "Obj.magic / Marshal in lib/";
      ri_hint = "use typed XDR codecs; unsafe casts and Marshal break the security argument";
    };
    {
      ri_code = "SL007";
      ri_title = "lib module without an interface file";
      ri_hint = "add a .mli so the module's public surface is explicit";
    };
    {
      ri_code = "SL008";
      ri_title = "stdout printing inside lib/";
      ri_hint =
        "libraries must stay silent; record through Sfs_obs.Obs or return strings for Sfs_workload.Report to render";
    };
    {
      ri_code = "SL009";
      ri_title = "per-byte string building on the wire fast path";
      ri_hint =
        "work block-wise on Bytes (Arc4.*_into, Mac.mac_into, Bytesutil.put_*) instead of per-byte String combinators or concatenation";
    };
    {
      ri_code = "SL010";
      ri_title = "unpriced Simnet.call_measured outside the mux builders";
      ri_hint =
        "Simnet.call_measured charges nothing to the clock; exchange through an Rpc_mux (Rpc_mux.of_conn and Rpc_mux.call), which prices the wire";
    };
    {
      ri_code = "SL011";
      ri_title = "waiver pragma without a justification";
      ri_hint =
        "every allow pragma must say why the waiver is sound: (* sfslint: allow SLxxx — reason *)";
    };
    {
      ri_code = "SL012";
      ri_title = "span_begin without a reachable span_end";
      ri_hint =
        "every Obs.span_begin must reach Obs.span_end on all paths (including exceptions), or hand \
         the open span to a closer (Rpc_mux.submit ~info closes it at the op's ready time) — waive \
         with a pragma naming the closer";
    };
    {
      ri_code = "SL013";
      ri_title = "copying allocation on the zero-copy data path";
      ri_hint =
        "the wire-to-cache read path opens a reply in the channel's reused frame buffer and copies \
         the data once, into the string the block cache keeps and a reader gets (Channel.open_with \
         -> decode -> Cachefs blocks -> copy_out), Memfs serves and keeps whole stored blocks, the \
         SFS server seals a reply from its DRC entry, and the NFS 3 server marshals a reply into \
         one encoder whose one copy is the wire message; build Slice views or reuse the stored \
         bytes instead of fresh Bytes.create/Bytes.make/Bytes.sub/String.sub/Xdr.to_string copies, \
         or waive with a pragma saying why the copy is inherent";
    };
    {
      ri_code = "SL014";
      ri_title = "lib export that no other file uses";
      ri_hint =
        "delete the value if its own module does not use it either, else drop it from the .mli; \
         waive with a pragma on the val saying who needs it";
    };
  ]

let all_codes = List.map (fun r -> r.ri_code) rules

let hint_of_code code =
  match List.find_opt (fun r -> r.ri_code = code) rules with
  | Some r -> r.ri_hint
  | None -> ""

(* --- path predicates --- *)

let starts_with ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let ends_with ~suffix s =
  let n = String.length s and m = String.length suffix in
  n >= m && String.sub s (n - m) m = suffix

let in_lib path = starts_with ~prefix:"lib/" path

let sl001_applies path =
  starts_with ~prefix:"lib/crypto/" path
  || starts_with ~prefix:"lib/proto/" path
  || starts_with ~prefix:"lib/core/" path

let sl002_applies path = in_lib path && path <> "lib/crypto/prng.ml"

(* SL009: per-byte string building is banned on the wire path.  The
   String combinators are flagged across the crypto and protocol
   trees; copy-heavy [String.sub] and [(^)] only in the files that sit
   on the per-message fast path or the random-generator path, where
   cold-path uses (key schedules, label building, seeding) are
   expected to carry a pragma. *)
let sl009_applies path =
  starts_with ~prefix:"lib/crypto/" path || starts_with ~prefix:"lib/proto/" path

let sl009_hot path =
  List.mem path
    [
      "lib/crypto/arc4.ml";
      "lib/crypto/sha1.ml";
      "lib/crypto/mac.ml";
      "lib/crypto/prng.ml";
      "lib/proto/channel.ml";
    ]
(* SL010: every exchange is priced by an Rpc_mux.  [Simnet.call_measured]
   charges nothing, so outside the two places that build mux exchanges
   (Rpc_mux.of_conn, and Nfs_client.data_path, the one data path of
   both clients) a direct call is a round trip the clock never sees. *)
let sl010_applies path =
  in_lib path && not (List.mem path [ "lib/net/rpc_mux.ml"; "lib/nfs/nfs_client.ml" ])

(* SL013: the audited zero-copy data path.  Within these files, any
   binding that is part of the zero-copy chain — the *_slice codecs,
   the channel's lending open, the block-cache feeders and its
   copy-out, Memfs's block store, the duplicate request cache, the SFS
   server's DRC insert and seal and the NFS 3 server's reply builder —
   must not allocate payload copies; a frame is opened in a reused
   buffer and decoded once, a stored block is served as itself, and a
   reply is sealed, or copied out once as the wire message, from the
   encoder that holds it.  Fixed-size or inherent allocations carry
   pragmas. *)
let sl013_applies path =
  List.mem path
    [
      "lib/proto/channel.ml";
      "lib/proto/sfsrw.ml";
      "lib/xdr/xdr.ml";
      "lib/nfs/cachefs.ml";
      "lib/nfs/memfs.ml";
      "lib/nfs/drc.ml";
      "lib/nfs/nfs_server.ml";
      "lib/core/server.ml";
    ]

let sl013_scope_name name =
  ends_with ~suffix:"_slice" name
  || List.mem name
       [
         "open_with";
         "note_block";
         "claim_inflight";
         "copy_out";
         "fetch_pipelined";
         "read_blocks";
         "write_blocks";
         "admit";
         "drc_insert";
         "handle_fs_request";
         "fs_connection";
         "handle_call";
         "service";
       ]

let sl003_applies path = in_lib path && path <> "lib/net/simclock.ml"
let sl004_applies path = starts_with ~prefix:"lib/xdr/" path || starts_with ~prefix:"lib/proto/" path

(* --- identifier helpers --- *)

let lid_flatten (lid : Longident.t) : string list =
  match Longident.flatten lid with l -> l | exception _ -> []

let strip_stdlib = function "Stdlib" :: rest -> rest | l -> l

let lid_last (lid : Longident.t) : string =
  match Longident.last lid with s -> s | exception _ -> ""

(* Names whose '_'-separated segments suggest secret material.  This is
   a heuristic: it is how the linter decides a polymorphic (=) touches
   bytes worth constant-time treatment. *)
let secret_segments =
  [
    "mac"; "hmac"; "tag"; "digest"; "hash"; "key"; "keys"; "secret"; "hostid";
    "session"; "nonce"; "password"; "passwd"; "verifier"; "half"; "halves";
    "share"; "sig"; "signature"; "token"; "seed";
  ]

let secretish_name (name : string) : bool =
  String.split_on_char '_' (String.lowercase_ascii name)
  |> List.exists (fun seg -> List.mem seg secret_segments)

(* Decoder-shaped binding names: the SL004 scope. *)
let is_decoder_name (name : string) : bool =
  starts_with ~prefix:"dec_" name
  || starts_with ~prefix:"decode" name
  || starts_with ~prefix:"parse_" name
  || ends_with ~suffix:"_of_string" name
  || ends_with ~suffix:"_of_wire" name
  || ends_with ~suffix:"_of_bytes" name

(* Syntactic evidence that an operand of (=) is string/bytes-like and
   secret-shaped: a long string literal (short literals are public
   tokens — path components, flags — and comparing them leaks
   nothing), or an identifier/field whose name suggests secret
   material. *)
let rec sl001_operand_evidence (e : expression) : string option =
  match e.pexp_desc with
  | Pexp_constant (Pconst_string (s, _, _)) when String.length s >= 8 ->
      Some (Printf.sprintf "%S" s)
  | Pexp_ident { txt; _ } when secretish_name (lid_last txt) -> Some (lid_last txt)
  | Pexp_field (_, { txt; _ }) when secretish_name (lid_last txt) -> Some (lid_last txt)
  | Pexp_constraint (e, _) -> sl001_operand_evidence e
  | _ -> None

(* Applications whose result is mutable state when bound at module
   toplevel.  Array/Bytes literal tables are deliberately not flagged:
   the constant-table idiom is pervasive and read-only. *)
let mutable_creators =
  [
    [ "ref" ];
    [ "Hashtbl"; "create" ];
    [ "Array"; "make" ];
    [ "Array"; "init" ];
    [ "Array"; "create_float" ];
    [ "Array"; "copy" ];
    [ "Bytes"; "create" ];
    [ "Bytes"; "make" ];
    [ "Bytes"; "of_string" ];
    [ "Bytes"; "copy" ];
    [ "Buffer"; "create" ];
    [ "Queue"; "create" ];
    [ "Stack"; "create" ];
    [ "Atomic"; "make" ];
    [ "Weak"; "create" ];
  ]

let rec mutable_creator_rhs (e : expression) : string option =
  match e.pexp_desc with
  | Pexp_constraint (e, _) | Pexp_lazy e -> mutable_creator_rhs e
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
      let path = strip_stdlib (lid_flatten txt) in
      if List.mem path mutable_creators then Some (String.concat "." path) else None
  | _ -> None

let pat_name (p : pattern) : string option =
  let rec go p =
    match p.ppat_desc with
    | Ppat_var { txt; _ } -> Some txt
    | Ppat_constraint (p, _) -> go p
    | _ -> None
  in
  go p

(* --- pragma comments --- *)

type pragma = {
  p_line_start : int;
  p_line_end : int;
  p_codes : string list; (* empty when malformed *)
  p_reason : string; (* justification text; "" when bare *)
  p_bare : bool; (* well-formed codes but no justification: never suppresses *)
  p_malformed : string option; (* SL000 message *)
}

(* Extract every comment from [src] with its line span.  A small lexer:
   tracks strings (with escapes), char literals (so '"' does not open a
   string) and nested comments.  Quoted-string literals {x|…|x} are not
   handled; the tree does not use them. *)
let scan_comments (src : string) : (string * int * int) list =
  let n = String.length src in
  let out = ref [] in
  let line = ref 1 in
  let i = ref 0 in
  let bump c = if c = '\n' then incr line in
  let is_char_literal i =
    (* 'c' or '\x' escapes; distinguishes from type variables 'a *)
    if i + 2 < n && src.[i + 1] <> '\\' && src.[i + 2] = '\'' then Some (i + 3)
    else if i + 2 < n && src.[i + 1] = '\\' then
      let rec close j = if j < n && j <= i + 6 then (if src.[j] = '\'' then Some (j + 1) else close (j + 1)) else None in
      close (i + 2)
    else None
  in
  let skip_string j0 =
    (* [j0] points at the opening quote; returns index past closing. *)
    let j = ref (j0 + 1) in
    let fin = ref false in
    while (not !fin) && !j < n do
      (match src.[!j] with
      | '\\' ->
          bump src.[!j];
          incr j;
          if !j < n then bump src.[!j]
      | '"' -> fin := true
      | c -> bump c);
      incr j
    done;
    !j
  in
  while !i < n do
    match src.[!i] with
    | '"' -> i := skip_string !i
    | '\'' -> (
        match is_char_literal !i with
        | Some j ->
            for k = !i to j - 1 do
              if k < n then bump src.[k]
            done;
            i := j
        | None ->
            bump '\'';
            incr i)
    | '(' when !i + 1 < n && src.[!i + 1] = '*' ->
        let start_line = !line in
        let buf = Buffer.create 64 in
        let depth = ref 1 in
        let j = ref (!i + 2) in
        while !depth > 0 && !j < n do
          if !j + 1 < n && src.[!j] = '(' && src.[!j + 1] = '*' then begin
            incr depth;
            Buffer.add_string buf "(*";
            j := !j + 2
          end
          else if !j + 1 < n && src.[!j] = '*' && src.[!j + 1] = ')' then begin
            decr depth;
            if !depth > 0 then Buffer.add_string buf "*)";
            j := !j + 2
          end
          else if src.[!j] = '"' then begin
            (* strings inside comments are lexed by OCaml; honor them *)
            let k = skip_string !j in
            Buffer.add_string buf (String.sub src !j (min (k - !j) (n - !j)));
            j := k
          end
          else begin
            bump src.[!j];
            Buffer.add_char buf src.[!j];
            incr j
          end
        done;
        out := (Buffer.contents buf, start_line, !line) :: !out;
        i := !j
    | c ->
        bump c;
        incr i
  done;
  List.rev !out

let contains_sub (s : string) (sub : string) : bool =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* Find every <prefix>NNN token in [s]; returns codes in order with
   the end offset of the last one.  The code alphabet is a prefix plus
   three digits — "SL001" for this tool, "TNT004" for sfstaint. *)
let find_codes ~(prefix : string) (s : string) : string list * int =
  let n = String.length s and pl = String.length prefix in
  let codes = ref [] in
  let last_end = ref 0 in
  let is_digit c = c >= '0' && c <= '9' in
  for i = 0 to n - (pl + 3) do
    if
      String.sub s i pl = prefix
      && is_digit s.[i + pl]
      && is_digit s.[i + pl + 1]
      && is_digit s.[i + pl + 2]
    then begin
      codes := String.sub s i (pl + 3) :: !codes;
      last_end := i + pl + 3
    end
  done;
  (List.rev !codes, !last_end)

(* A justification needs at least two alphabetic words ("public tag",
   "serial handshake"), not just a stray character. *)
let has_justification (tail : string) : bool =
  let n = String.length tail in
  let words = ref 0 in
  let run = ref 0 in
  let flush () =
    if !run >= 2 then incr words;
    run := 0
  in
  for i = 0 to n - 1 do
    let c = tail.[i] in
    if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') then incr run else flush ()
  done;
  flush ();
  !words >= 2

let reason_of_tail (tail : string) : string =
  let n = String.length tail in
  let rec start i =
    if i >= n then n
    else
      let c = tail.[i] in
      if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') then i
      else start (i + 1)
  in
  let s = start 0 in
  String.trim (String.sub tail s (n - s))

(* The tool-generic pragma parser.  [tool] is the directive name the
   comment must carry ("sfslint"/"sfstaint"); [prefix]+3 digits is the
   code alphabet; [known] the valid codes.  A pragma with codes but no
   justification parses as bare: it never suppresses, and each tool
   reports it (SL011 here, TNT000 in sfstaint). *)
let parse_pragma_for ~(tool : string) ~(prefix : string) ~(known : string list)
    (text : string) (line_start : int) (line_end : int) : pragma option =
  if not (contains_sub text tool) then None
  else
    let mk ?(codes = []) ?(reason = "") ?(bare = false) malformed =
      Some
        {
          p_line_start = line_start;
          p_line_end = line_end;
          p_codes = codes;
          p_reason = reason;
          p_bare = bare;
          p_malformed = malformed;
        }
    in
    if not (contains_sub text "allow") then
      mk (Some (tool ^ " pragma without an 'allow' directive"))
    else
      let codes, last_end = find_codes ~prefix text in
      let unknown = List.filter (fun c -> not (List.mem c known)) codes in
      if codes = [] then
        mk (Some (Printf.sprintf "%s pragma names no rule code (%sxxx)" tool prefix))
      else if unknown <> [] then
        mk (Some (Printf.sprintf "%s pragma names unknown rule %s" tool (List.hd unknown)))
      else
        let tail = String.sub text last_end (String.length text - last_end) in
        if has_justification tail then mk ~codes ~reason:(reason_of_tail tail) None
        else mk ~codes ~bare:true None

let parse_pragma (text : string) (line_start : int) (line_end : int) : pragma option =
  parse_pragma_for ~tool:"sfslint" ~prefix:"SL" ~known:all_codes text line_start line_end

let scan_pragmas_for ~(tool : string) ~(prefix : string) ~(known : string list) (src : string)
    : pragma list =
  List.filter_map
    (fun (text, ls, le) -> parse_pragma_for ~tool ~prefix ~known text ls le)
    (scan_comments src)

let scan_pragmas (src : string) : pragma list =
  scan_pragmas_for ~tool:"sfslint" ~prefix:"SL" ~known:all_codes src

(* A pragma covers a diagnostic on its own line span or on the line
   directly below the comment.  Bare pragmas never suppress. *)
let suppressed (pragmas : pragma list) (code : string) (line : int) : bool =
  List.exists
    (fun p ->
      (not p.p_bare) && List.mem code p.p_codes && line >= p.p_line_start
      && line <= p.p_line_end + 1)
    pragmas

(* --- the AST pass --- *)

let check_ast ~(path : string) ~(enabled : string list) (ast : structure) : diagnostic list =
  let diags = ref [] in
  let add ~(loc : Location.t) code message =
    if List.mem code enabled then
      let pos = loc.Location.loc_start in
      diags :=
        {
          code;
          file = path;
          line = pos.Lexing.pos_lnum;
          col = pos.Lexing.pos_cnum - pos.Lexing.pos_bol;
          message;
          hint = hint_of_code code;
        }
        :: !diags
  in
  (* Innermost-to-outermost chain of enclosing let-binding names, for
     the SL004 decoder scope. *)
  let binding_stack = ref [] in
  let in_decoder () = List.exists is_decoder_name !binding_stack in
  let in_slice_scope () = List.exists sl013_scope_name !binding_stack in
  let on_ident ~loc (txt : Longident.t) =
    let p = strip_stdlib (lid_flatten txt) in
    (if sl001_applies path then
       match p with
       | [ "String"; "equal" ] | [ "Bytes"; "equal" ] | [ "String"; "compare" ] | [ "Bytes"; "compare" ]
         ->
           add ~loc "SL001"
             (Printf.sprintf "%s short-circuits on the first differing byte" (String.concat "." p))
       | _ -> ());
    (if sl002_applies path then
       match p with
       | "Random" :: _ ->
           add ~loc "SL002"
             (Printf.sprintf "%s bypasses the seeded PRNG" (String.concat "." p))
       | _ -> ());
    (if sl003_applies path then
       match p with
       | [ "Unix"; "gettimeofday" ] | [ "Unix"; "time" ] | [ "Sys"; "time" ] ->
           add ~loc "SL003"
             (Printf.sprintf "%s reads the wall clock inside the simulation boundary"
                (String.concat "." p))
       | _ -> ());
    (if sl004_applies path && in_decoder () then
       match p with
       | [ "failwith" ] | [ "invalid_arg" ] | [ "raise" ] | [ "raise_notrace" ] ->
           add ~loc "SL004"
             (Printf.sprintf "%s in decoder '%s' lets a malicious peer crash the server"
                (String.concat "." p)
                (match !binding_stack with b :: _ -> b | [] -> "?"))
       | _ -> ());
    (if sl010_applies path then
       match p with
       | [ "Simnet"; "call_measured" ] | [ "Sfs_net"; "Simnet"; "call_measured" ] ->
           add ~loc "SL010" "Simnet.call_measured charges nothing: the exchange goes unpriced"
       | _ -> ());
    (if sl009_applies path then
       match p with
       | [ "String"; "map" ] | [ "String"; "mapi" ] | [ "String"; "init" ] ->
           add ~loc "SL009"
             (Printf.sprintf "%s allocates and calls a closure per byte on the wire path"
                (String.concat "." p))
       | [ "^" ] when sl009_hot path ->
           add ~loc "SL009" "(^) concatenation copies both operands on the per-message fast path"
       | [ "String"; "sub" ] when sl009_hot path ->
           add ~loc "SL009"
             "String.sub copies on the per-message fast path; index into the frame buffer instead"
       | _ -> ());
    (if sl013_applies path && in_slice_scope () then
       match p with
       | [ "Bytes"; "create" ] | [ "Bytes"; "make" ] | [ "Bytes"; "sub" ] | [ "Bytes"; "sub_string" ]
       | [ "String"; "sub" ] | [ "Bytes"; "of_string" ] | [ "Bytes"; "to_string" ]
       | [ "Xdr"; "to_string" ] | [ "Sfs_xdr"; "Xdr"; "to_string" ] ->
           add ~loc "SL013"
             (Printf.sprintf "%s allocates a copy inside the zero-copy data path"
                (String.concat "." p))
       | _ -> ());
    (if in_lib path then
       match p with
       | "Obj" :: rest when List.mem "magic" rest ->
           add ~loc "SL006" "Obj.magic defeats the type system"
       | "Marshal" :: _ ->
           add ~loc "SL006" "Marshal bypasses the XDR codecs and is unsafe on untrusted bytes"
       | _ -> ());
    if in_lib path then
      match p with
      | [ "print_string" ] | [ "print_endline" ] | [ "print_newline" ] | [ "print_char" ]
      | [ "print_int" ] | [ "print_float" ] | [ "print_bytes" ]
      | [ "Printf"; "printf" ] | [ "Format"; "printf" ] | [ "Format"; "print_string" ] ->
          add ~loc "SL008"
            (Printf.sprintf "%s writes to stdout from library code" (String.concat "." p))
      | _ -> ()
  in
  let iter =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_ident { txt; _ } -> on_ident ~loc:e.pexp_loc txt
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) when sl001_applies path
            -> (
              let p = strip_stdlib (lid_flatten txt) in
              match (p, args) with
              | ([ "=" ] | [ "<>" ] | [ "compare" ]), [ (_, a); (_, b) ] -> (
                  let ev =
                    match sl001_operand_evidence a with
                    | Some _ as s -> s
                    | None -> sl001_operand_evidence b
                  in
                  match ev with
                  | Some witness ->
                      add ~loc:e.pexp_loc "SL001"
                        (Printf.sprintf
                           "polymorphic %s on string/bytes value (%s) is not constant-time"
                           (String.concat "." p) witness)
                  | None -> ())
              | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
      value_binding =
        (fun self vb ->
          match pat_name vb.pvb_pat with
          | Some name ->
              binding_stack := name :: !binding_stack;
              Ast_iterator.default_iterator.value_binding self vb;
              binding_stack := List.tl !binding_stack
          | None -> Ast_iterator.default_iterator.value_binding self vb);
      structure_item =
        (fun self si ->
          (* SL012: an explicitly bracketed span opened in a top-level
             item that never mentions span_end cannot close it on any
             path — exception paths included.  Items that delegate
             closing (passing the open span to Rpc_mux.submit) carry a
             pragma naming the closer. *)
          (match si.pstr_desc with
          | Pstr_value (_, _) when in_lib path && List.mem "SL012" enabled ->
              let begins = ref [] and ends = ref 0 in
              let gather =
                {
                  Ast_iterator.default_iterator with
                  expr =
                    (fun self e ->
                      (match e.pexp_desc with
                      | Pexp_ident { txt; _ } -> (
                          match List.rev (lid_flatten txt) with
                          | "span_begin" :: _ -> begins := e.pexp_loc :: !begins
                          | "span_end" :: _ -> incr ends
                          | _ -> ())
                      | _ -> ());
                      Ast_iterator.default_iterator.expr self e);
                }
              in
              gather.structure_item gather si;
              if !ends = 0 then
                List.iter
                  (fun loc ->
                    add ~loc "SL012"
                      "span_begin whose enclosing top-level item never calls span_end leaks the \
                       span on every path")
                  (List.rev !begins)
          | _ -> ());
          (match si.pstr_desc with
          | Pstr_value (_, vbs) when in_lib path ->
              List.iter
                (fun vb ->
                  match mutable_creator_rhs vb.pvb_expr with
                  | Some what ->
                      let name =
                        match pat_name vb.pvb_pat with Some n -> n | None -> "_"
                      in
                      add ~loc:vb.pvb_loc "SL005"
                        (Printf.sprintf
                           "module-toplevel mutable state '%s' (%s) is shared across runs" name
                           what)
                  | None -> ())
                vbs
          | _ -> ());
          Ast_iterator.default_iterator.structure_item self si);
    }
  in
  iter.structure iter ast;
  List.rev !diags

(* --- entry points --- *)

let parse_with (parse : Lexing.lexbuf -> 'a) ~(path : string) (source : string) : ('a, string) result =
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf path;
  match parse lexbuf with
  | ast -> Ok ast
  | exception e -> (
      match Location.error_of_exn e with
      | Some (`Ok report) -> Error (Format.asprintf "%a" Location.print_report report)
      | _ -> Error (Printexc.to_string e))

let parse_implementation ~path source = parse_with Parse.implementation ~path source

let compare_diag (a : diagnostic) (b : diagnostic) : int =
  match compare a.file b.file with
  | 0 -> (
      match compare a.line b.line with
      | 0 -> ( match compare a.col b.col with 0 -> compare a.code b.code | c -> c)
      | c -> c)
  | c -> c

(* SL000/SL011: the pragmas of one file that are malformed or bare. *)
let pragma_diags ~(enabled : string list) ~(path : string) (pragmas : pragma list) :
    diagnostic list =
  List.filter_map
    (fun p ->
      match p.p_malformed with
      | Some msg when List.mem "SL000" enabled ->
          Some
            {
              code = "SL000";
              file = path;
              line = p.p_line_start;
              col = 0;
              message = msg;
              hint = hint_of_code "SL000";
            }
      | None when p.p_bare && List.mem "SL011" enabled ->
          Some
            {
              code = "SL011";
              file = path;
              line = p.p_line_start;
              col = 0;
              message =
                Printf.sprintf "pragma waives %s without a justification"
                  (String.concat ", " p.p_codes);
              hint = hint_of_code "SL011";
            }
      | _ -> None)
    pragmas

(* Lint one compilation unit.  [path] is the repo-relative path used
   for rule applicability; [source] is the file contents. *)
let check_source ?(enabled = all_codes) ~(path : string) ~(source : string) () :
    (diagnostic list, string) result =
  match parse_implementation ~path source with
  | Error msg -> Error msg
  | Ok ast ->
      let pragmas = scan_pragmas source in
      let ast_diags = check_ast ~path ~enabled ast in
      let kept =
        List.filter (fun d -> not (suppressed pragmas d.code d.line)) ast_diags
      in
      Ok (List.sort compare_diag (kept @ pragma_diags ~enabled ~path pragmas))

(* SL007 is a file-level rule: the caller knows whether the sibling
   .mli exists.  A pragma anywhere in the file waives it. *)
let missing_interface ?(enabled = all_codes) ~(path : string) ~(source : string)
    ~(has_mli : bool) () : diagnostic option =
  if
    (not (List.mem "SL007" enabled))
    || (not (in_lib path))
    || (not (ends_with ~suffix:".ml" path))
    || has_mli
    || List.exists
         (fun p -> (not p.p_bare) && List.mem "SL007" p.p_codes)
         (scan_pragmas source)
  then None
  else
    Some
      {
        code = "SL007";
        file = path;
        line = 1;
        col = 0;
        message = "module has no interface file (.mli)";
        hint = hint_of_code "SL007";
      }

(* --- SL014: exports that nothing uses ---

   A whole-tree rule: each value a lib/ interface declares at top level
   must be named by some .ml other than its module's own.  Uses are
   read syntactically from every .ml under lib/ and [consumer_dirs]:
   - [A.B.M.v] is a use of [M.v], whatever the path before [M];
   - after [module X = A.M] (or [let module]), [X.v] is a use of [M.v];
   - in a file that opens [M] ([open M], [let open M in], [M.(e)]),
     every bare identifier [v] is a use of [M.v].
   A module is known by its file's basename, so a same-named module
   elsewhere, or a local binding in a file that opens [M], counts as a
   use: the rule can miss a dead export but never reports a live one.
   The other rules stay on lib/; the consumer directories beside it
   are only read. *)

let consumer_dirs = [ "test"; "bench"; "bin"; "examples"; "tools"; "perfbench" ]

let module_of_path (path : string) : string =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

(* Every (module, value) pair one implementation names. *)
let uses_of_ast (ast : structure) : (string * string) list =
  let aliases = Hashtbl.create 8 in
  let opens = ref [] and bare = ref [] and qualified = ref [] in
  let last_module (lid : Longident.t) =
    match List.rev (lid_flatten lid) with m :: _ -> Some m | [] -> None
  in
  let note_alias name (me : module_expr) =
    match (name, me.pmod_desc) with
    | Some x, Pmod_ident { txt; _ } -> Option.iter (Hashtbl.replace aliases x) (last_module txt)
    | _ -> ()
  in
  let iter =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_ident { txt = Longident.Lident v; _ } -> bare := v :: !bare
          | Pexp_ident { txt = Longident.Ldot (m, v); _ } ->
              Option.iter (fun m -> qualified := (m, v) :: !qualified) (last_module m)
          | Pexp_letmodule ({ txt; _ }, me, _) -> note_alias txt me
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
      module_binding =
        (fun self mb ->
          note_alias mb.pmb_name.txt mb.pmb_expr;
          Ast_iterator.default_iterator.module_binding self mb);
      open_declaration =
        (fun self od ->
          (match od.popen_expr.pmod_desc with
          | Pmod_ident { txt; _ } -> Option.iter (fun m -> opens := m :: !opens) (last_module txt)
          | _ -> ());
          Ast_iterator.default_iterator.open_declaration self od);
    }
  in
  iter.structure iter ast;
  (* Aliases are file-wide; follow a chain of them a few steps. *)
  let rec resolve depth m =
    match Hashtbl.find_opt aliases m with
    | Some m' when depth > 0 && m' <> m -> resolve (depth - 1) m'
    | _ -> m
  in
  List.map (fun (m, v) -> (resolve 8 m, v)) !qualified
  @ List.concat_map (fun m -> List.map (fun v -> (resolve 8 m, v)) !bare) !opens

(* The values an interface declares at top level, with their lines. *)
let exported_values (sg : signature) : (string * int) list =
  List.filter_map
    (fun si ->
      match si.psig_desc with
      | Psig_value vd -> Some (vd.pval_name.txt, vd.pval_loc.Location.loc_start.Lexing.pos_lnum)
      | _ -> None)
    sg

(* [interfaces] are the lib/ .mli files and [uses] every consumer .ml,
   each as (repo-relative path, source).  Reports SL014 for each export
   no file but its module's own .ml names, plus SL000/SL011 for the
   interfaces' own pragmas. *)
let unused_exports ?(enabled = all_codes) ~(interfaces : (string * string) list)
    ~(uses : (string * string) list) () : (diagnostic list, string) result =
  let exception Unparsable of string in
  let parse parser (path, source) =
    match parse_with parser ~path source with
    | Ok ast -> ast
    | Error msg -> raise (Unparsable (path ^ ": " ^ msg))
  in
  let unused_in users ((path, source) as file) =
    let pragmas = scan_pragmas source in
    let own = Filename.remove_extension path ^ ".ml" and m = module_of_path path in
    let dead (v, line) =
      List.mem "SL014" enabled
      && (not (List.exists (fun f -> f <> own) (Hashtbl.find_all users (m, v))))
      && not (suppressed pragmas "SL014" line)
    in
    List.filter_map
      (fun ((v, line) as export) ->
        if not (dead export) then None
        else
          Some
            {
              code = "SL014";
              file = path;
              line;
              col = 0;
              message = Printf.sprintf "%s.%s is exported but no file other than %s uses it" m v own;
              hint = hint_of_code "SL014";
            })
      (exported_values (parse Parse.interface file))
    @ pragma_diags ~enabled ~path pragmas
  in
  match
    let users = Hashtbl.create 4096 in
    List.iter
      (fun ((path, _) as file) ->
        List.iter (fun key -> Hashtbl.add users key path) (uses_of_ast (parse Parse.implementation file)))
      uses;
    List.concat_map (unused_in users) interfaces
  with
  | ds -> Ok (List.sort compare_diag ds)
  | exception Unparsable msg -> Error msg

(* --- rendering --- *)

let render_text (d : diagnostic) : string =
  Printf.sprintf "%s:%d:%d: %s %s\n  hint: %s" d.file d.line d.col d.code d.message d.hint

let render_github (d : diagnostic) : string =
  Printf.sprintf "::error file=%s,line=%d,col=%d,title=%s::%s (hint: %s)" d.file d.line d.col
    d.code d.message d.hint

let json_escape (s : string) : string =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let render_json_diag (d : diagnostic) : string =
  Printf.sprintf
    {|{"code":"%s","file":"%s","line":%d,"col":%d,"message":"%s","hint":"%s"}|}
    (json_escape d.code) (json_escape d.file) d.line d.col (json_escape d.message)
    (json_escape d.hint)

(* The machine-readable report emitted by the @lint alias; future PRs
   track per-rule counts alongside the BENCH_*.json artifacts.  The
   layout is deterministic: diagnostics sorted by file/line/col/code,
   counts sorted by code. *)
let report_json ~(files_checked : int) (diags : diagnostic list) : string =
  let diags = List.sort compare_diag diags in
  let counts =
    List.filter_map
      (fun r ->
        match List.length (List.filter (fun d -> d.code = r.ri_code) diags) with
        | 0 -> None
        | n -> Some (Printf.sprintf {|"%s":%d|} r.ri_code n))
      rules
  in
  Printf.sprintf
    {|{"tool":"sfslint","version":1,"files_checked":%d,"total_violations":%d,"counts":{%s},"violations":[%s]}|}
    files_checked (List.length diags)
    (String.concat "," counts)
    (String.concat "," (List.map render_json_diag diags))
