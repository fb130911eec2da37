(* make mutants: apply each catalogue entry to a fresh copy of the tree,
   run `dune build` and then `dune runtest` there, and record whether
   the suite killed it and which tests failed.  The suite runs even when
   the build fails: `dune build` also runs the examples, and a mutant
   that compiles but crashes one must still meet its test.  Not tier-1:
   each mutant rebuilds the tree from scratch (about a minute or two
   each).

   Usage, from the repository root:
     main.exe [--report FILE] [--only NAME]

   Copies go under $TMPDIR and are removed after each run.  The report
   is JSON, one object per mutant: "killed" when a test failed,
   "survived" when none did, "broken" when no test ran (the mutant does
   not compile).  It exits 1 if any mutant survived or broke: a broken entry
   tests nothing.  The catalogue's own test ("mutants" suite) always
   fails in a mutated copy, whose old text is gone, so it kills
   nothing. *)

module M = Sfs_mutants.Mutants

let report = ref "mutants-report.json"
let only = ref None

let json_string (s : string) : string =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let last_lines (n : int) (log : string) : string =
  let lines = List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' log) in
  let k = List.length lines in
  String.concat "\n" (List.filteri (fun i _ -> i >= k - n) lines)

let mutate (e : M.entry) : string * string =
  let dir = Filename.temp_dir "sfs-mutant-" "" in
  let q = Filename.quote in
  let copy =
    Printf.sprintf "tar --exclude=./_build --exclude=./.git -cf - . | tar -C %s -xf -" (q dir)
  in
  if Sys.command copy <> 0 then failwith ("cannot copy the tree into " ^ dir);
  let path = Filename.concat dir e.M.file in
  let src = M.read_file path in
  Out_channel.with_open_bin path (fun oc -> output_string oc (M.apply e src));
  let log = Filename.concat dir "mutant.log" in
  let status =
    Sys.command
      (Printf.sprintf "cd %s && (dune build --root . 2>&1; dune runtest --root . 2>&1) > %s" (q dir)
         (q log))
  in
  let out = M.read_file log in
  ignore (Sys.command ("rm -rf " ^ q dir));
  let failed =
    List.filter (fun t -> not (String.starts_with ~prefix:"mutants " t)) (M.failed_tests out)
  in
  let tests_ran = status = 0 || M.occurrences ~sub:"tests run" out > 0 in
  let outcome = if not tests_ran then "broken" else if failed <> [] then "killed" else "survived" in
  Printf.printf "%-24s %-8s %s\n%!" e.M.name outcome (String.concat "; " failed);
  ( outcome,
    Printf.sprintf
      "  {\"name\": %s, \"file\": %s, \"claim\": %s, \"killer\": %s, \"outcome\": %s, \
       \"killed_by_killer\": %b, \"failed_tests\": [%s]%s}"
      (json_string e.M.name) (json_string e.M.file) (json_string e.M.claim)
      (json_string e.M.killer) (json_string outcome) (List.mem e.M.killer failed)
      (String.concat ", " (List.map json_string failed))
      (if outcome = "broken" then ", \"log_tail\": " ^ json_string (last_lines 20 out) else "") )

let () =
  Arg.parse
    [
      ("--report", Arg.Set_string report, "FILE JSON report (default mutants-report.json)");
      ("--only", Arg.String (fun n -> only := Some n), "NAME run one catalogue entry");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe [--report FILE] [--only NAME]";
  let entries =
    List.filter (fun e -> match !only with None -> true | Some n -> e.M.name = n) M.catalogue
  in
  let results = List.map mutate entries in
  Out_channel.with_open_bin !report (fun oc ->
      output_string oc ("[\n" ^ String.concat ",\n" (List.map snd results) ^ "\n]\n"));
  if List.exists (fun (outcome, _) -> outcome <> "killed") results then exit 1
