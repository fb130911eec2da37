(* The mutant catalogue (tools/mutants) names each mutant by the exact
   text it replaces.  Every old text must occur exactly once in its
   file, or `make mutants` would break a different line than the
   catalogue's claim, or none.  Runs from the build tree ([dune test])
   or from the repository root ([dune exec]). *)

module M = Sfs_mutants.Mutants

let root = if Sys.file_exists "lib/core/server.ml" then "." else ".."

let test_old_texts_once () =
  Testkit.check_bool "catalogue not empty" true (M.catalogue <> []);
  List.iter
    (fun (e : M.entry) ->
      Testkit.check_int
        (Printf.sprintf "%s: occurrences in %s" e.M.name e.M.file)
        1
        (M.occurrences ~sub:e.M.old_text (M.read_file (Filename.concat root e.M.file))))
    M.catalogue

let test_apply () =
  List.iter
    (fun (e : M.entry) ->
      let src = M.read_file (Filename.concat root e.M.file) in
      let mutated = M.apply e src in
      Testkit.check_int (e.M.name ^ ": old text gone") 0 (M.occurrences ~sub:e.M.old_text mutated);
      Testkit.check_int (e.M.name ^ ": line count kept") 0
        (List.length (String.split_on_char '\n' src) - List.length (String.split_on_char '\n' mutated)))
    M.catalogue

(* The runner's verdict rests on reading alcotest's report: progress
   and boxed lines, colour codes, names cut short, each failure named
   once. *)
let test_failed_tests () =
  let log =
    String.concat "\n"
      [
        "  \027[32m[OK]\027[0m          proto          3   keyneg agreement.";
        "> \027[31m[FAIL]\027[0m        workload            10   wire pin.";
        "\u{2502} [FAIL]        workload            10   wire pin.                             \u{2502}";
        "> [FAIL]        core          12   server denies a replayed auth request.";
        "\u{2502} [FAIL]        core          12   server denies a replayed auth req..  \u{2502}";
        "  [FAIL]        core          3   keyneg MITM rejected.";
        "2 failures! in 45.800s. 344 tests run.";
      ]
  in
  Alcotest.(check (list string))
    "failed"
    [ "workload wire pin"; "core server denies a replayed auth request"; "core keyneg MITM rejected" ]
    (M.failed_tests log)

let suite =
  ( "mutants",
    [
      Alcotest.test_case "catalogue old texts occur once" `Quick test_old_texts_once;
      Alcotest.test_case "catalogue entries apply" `Quick test_apply;
      Alcotest.test_case "runner reads alcotest failures" `Quick test_failed_tests;
    ] )
