(* sfslint CLI.

   Usage: main.exe [options] <path>...
   Walks the given files/directories (typically just "lib"), lints
   every .ml, and reports violations.  For SL014 it also reads the
   .mli files under the roots and, for a root named "lib", every .ml
   in the sibling directories of Lint.consumer_dirs that exist, each
   under its repo-relative path.

   Exit codes: 0 clean, 1 violations found, 2 usage/IO/parse error.
   --exit-zero reports but always exits 0 (parse errors still exit 2)
   — the build uses it for the report-generation rule, with a second
   strict run as the gate. *)

module Lint = Sfslint_core.Lint

let usage = "sfslint [--format=text|github|json] [--enable SLxxx] [--disable SLxxx] [--report FILE] [--exit-zero] [--list-rules] <path>..."

let format = ref "text"
let enable : string list ref = ref []
let disable : string list ref = ref []
let report_file : string ref = ref ""
let exit_zero = ref false
let list_rules = ref false
let roots : string list ref = ref []

let split_codes (s : string) : string list =
  String.split_on_char ',' s |> List.map String.trim |> List.filter (fun c -> c <> "")

let spec =
  [
    ("--format", Arg.Set_string format, "FMT  output format: text (default), github, json");
    ( "--enable",
      Arg.String (fun s -> enable := !enable @ split_codes s),
      "CODES  run only these rules (comma-separated, repeatable)" );
    ( "--disable",
      Arg.String (fun s -> disable := !disable @ split_codes s),
      "CODES  skip these rules (comma-separated, repeatable)" );
    ("--report", Arg.Set_string report_file, "FILE  also write a JSON report to FILE");
    ("--exit-zero", Arg.Set exit_zero, " report findings but exit 0 (for report generation)");
    ("--list-rules", Arg.Set list_rules, " print the rule table and exit");
  ]

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("sfslint: " ^ s); exit 2) fmt

(* Repo-relative path for rule applicability: take the suffix starting
   at the last "lib" path segment, so both "lib/crypto/mac.ml" and
   "/abs/checkout/lib/crypto/mac.ml" key the same rules. *)
let rel_path (p : string) : string =
  let segs = String.split_on_char '/' p in
  let rec last_lib_suffix acc best = function
    | [] -> best
    | "lib" :: _ as rest -> last_lib_suffix acc (Some rest) (List.tl rest)
    | _ :: tl -> last_lib_suffix acc best tl
  in
  match last_lib_suffix [] None segs with
  | Some suffix -> String.concat "/" suffix
  | None -> p

let rec walk ~(ext : string) (p : string) : string list =
  if Sys.is_directory p then
    Sys.readdir p |> Array.to_list |> List.sort compare
    |> List.concat_map (fun name ->
           if name = "_build" || name = ".git" || (String.length name > 0 && name.[0] = '.') then
             []
           else walk ~ext (Filename.concat p name))
  else if Filename.check_suffix p ext then [ p ]
  else []

(* The consumer directories beside a root named "lib", as (name, path). *)
let siblings (root : string) : (string * string) list =
  if Filename.basename root <> "lib" || not (Sys.is_directory root) then []
  else
    List.filter_map
      (fun d ->
        let p = Filename.concat (Filename.dirname root) d in
        if Sys.file_exists p && Sys.is_directory p then Some (d, p) else None)
      Lint.consumer_dirs

let read_file (p : string) : string =
  let ic = open_in_bin p in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let () =
  (try Arg.parse_argv Sys.argv spec (fun p -> roots := !roots @ [ p ]) usage
   with
  | Arg.Bad msg -> die "%s" msg
  | Arg.Help msg ->
      print_string msg;
      exit 0);
  if !list_rules then begin
    List.iter
      (fun r ->
        Printf.printf "%s  %s\n       hint: %s\n" r.Lint.ri_code r.Lint.ri_title r.Lint.ri_hint)
      Lint.rules;
    exit 0
  end;
  if !roots = [] then die "no paths given; try: sfslint lib";
  if not (List.mem !format [ "text"; "github"; "json" ]) then
    die "unknown --format %s (want text, github or json)" !format;
  let enabled =
    let base = if !enable = [] then Lint.all_codes else "SL000" :: !enable in
    let unknown = List.filter (fun c -> not (List.mem c Lint.all_codes)) (!enable @ !disable) in
    (match unknown with [] -> () | c :: _ -> die "unknown rule code %s" c);
    List.filter (fun c -> not (List.mem c !disable)) base
  in
  let files =
    List.concat_map
      (fun root ->
        if not (Sys.file_exists root) then die "no such path: %s" root;
        walk ~ext:".ml" root)
      !roots
  in
  if files = [] then die "no .ml files under %s" (String.concat " " !roots);
  let had_error = ref false in
  let diags = ref [] in
  List.iter
    (fun file ->
      let source = try read_file file with Sys_error e -> die "%s" e in
      let path = rel_path file in
      (match Lint.check_source ~enabled ~path ~source () with
      | Ok ds -> diags := !diags @ ds
      | Error msg ->
          had_error := true;
          Printf.eprintf "sfslint: %s: parse error:\n%s\n" file msg);
      let has_mli = Sys.file_exists (Filename.remove_extension file ^ ".mli") in
      match Lint.missing_interface ~enabled ~path ~source ~has_mli () with
      | Some d -> diags := !diags @ [ d ]
      | None -> ())
    files;
  let read f = try read_file f with Sys_error e -> die "%s" e in
  let sources paths = List.map (fun f -> (rel_path f, read f)) paths in
  let interfaces =
    List.concat_map (walk ~ext:".mli") !roots
    |> List.filter (fun f -> Lint.in_lib (rel_path f))
  in
  (* A consumer file's path from the repo root: its directory's name,
     then the rest of the path below that directory. *)
  let consumers =
    List.concat_map
      (fun r ->
        List.concat_map
          (fun (name, dir) ->
            List.map
              (fun f -> (name ^ String.sub f (String.length dir) (String.length f - String.length dir), read f))
              (walk ~ext:".ml" dir))
          (siblings r))
      !roots
  in
  (match Lint.unused_exports ~enabled ~interfaces:(sources interfaces) ~uses:(sources files @ consumers) () with
  | Ok ds -> diags := !diags @ ds
  | Error msg ->
      had_error := true;
      Printf.eprintf "sfslint: parse error:\n%s\n" msg);
  let diags = List.sort Lint.compare_diag !diags in
  let json = Lint.report_json ~files_checked:(List.length files) diags in
  (match !format with
  | "json" -> print_endline json
  | "github" -> List.iter (fun d -> print_endline (Lint.render_github d)) diags
  | _ ->
      List.iter (fun d -> print_endline (Lint.render_text d)) diags;
      Printf.printf "sfslint: %d file(s) checked, %d violation(s)\n" (List.length files)
        (List.length diags));
  if !report_file <> "" then begin
    let oc = open_out !report_file in
    output_string oc json;
    output_char oc '\n';
    close_out oc
  end;
  if !had_error then exit 2
  else if (not !exit_zero) && diags <> [] then exit 1
  else exit 0
