(* Self-tests for the sfslint rule engine (tools/sfslint).

   Every shipped rule gets the same treatment: a known-bad snippet
   fires, a known-good snippet stays silent, and a pragma comment
   suppresses the diagnostic.  Snippets only have to parse — the
   linter never typechecks — so they reference modules freely. *)

module Lint = Sfslint_core.Lint

let check ?enabled ~path src =
  match Lint.check_source ?enabled ~path ~source:src () with
  | Ok ds -> ds
  | Error e -> Alcotest.failf "unexpected parse error: %s" e

let codes ?enabled ~path src = List.map (fun d -> d.Lint.code) (check ?enabled ~path src)

let fires msg ~path ~code src =
  Alcotest.(check bool) (msg ^ " fires") true (List.mem code (codes ~path src))

let silent msg ~path ~code src =
  Alcotest.(check bool) (msg ^ " silent") false (List.mem code (codes ~path src))

let test_sl001 () =
  fires "= on mac tag" ~path:"lib/crypto/mac.ml" ~code:"SL001"
    "let verify ~key ~tag msg = tag = hmac ~key msg";
  fires "<> on digest field" ~path:"lib/core/readonly.ml" ~code:"SL001"
    "let changed a b = a.root_hash <> b.root_hash";
  fires "String.equal" ~path:"lib/proto/hostid.ml" ~code:"SL001"
    "let check a b = String.equal a b";
  fires "Bytes.compare" ~path:"lib/core/x.ml" ~code:"SL001" "let f a b = Bytes.compare a b";
  fires "compare against long literal" ~path:"lib/proto/x.ml" ~code:"SL001"
    {|let f s = s = "0123456789abcdef"|};
  silent "ct_equal" ~path:"lib/crypto/mac.ml" ~code:"SL001"
    "let verify ~key ~tag msg = Sfs_util.Bytesutil.ct_equal tag (hmac ~key msg)";
  silent "short public token" ~path:"lib/core/vfs.ml" ~code:"SL001"
    {|let keep c = c <> "."|};
  silent "no secret-shaped operand" ~path:"lib/core/vfs.ml" ~code:"SL001" "let f a b = a = b";
  silent "outside restricted dirs" ~path:"lib/nfs/nfs_types.ml" ~code:"SL001"
    "let verify ~key ~tag msg = tag = hmac ~key msg";
  (* The diagnostic carries a usable span. *)
  match check ~path:"lib/crypto/mac.ml" "let a = 1\nlet bad ~tag x = tag = x" with
  | [ d ] ->
      Alcotest.(check string) "code" "SL001" d.Lint.code;
      Alcotest.(check int) "line" 2 d.Lint.line
  | ds -> Alcotest.failf "expected one diagnostic, got %d" (List.length ds)

let test_sl001_pragma () =
  silent "pragma above" ~path:"lib/crypto/mac.ml" ~code:"SL001"
    "(* sfslint: allow SL001 — test fixture comparing public tags *)\nlet f ~tag x = tag = x";
  silent "pragma same line" ~path:"lib/crypto/mac.ml" ~code:"SL001"
    "let f ~tag x = tag = x (* sfslint: allow SL001 — public tag *)";
  (* A pragma for a different rule does not suppress. *)
  fires "wrong-code pragma" ~path:"lib/crypto/mac.ml" ~code:"SL001"
    "(* sfslint: allow SL002 — wrong rule *)\nlet f ~tag x = tag = x";
  (* A pragma two lines up does not suppress. *)
  fires "distant pragma" ~path:"lib/crypto/mac.ml" ~code:"SL001"
    "(* sfslint: allow SL001 — too far away *)\nlet a = 1\nlet f ~tag x = tag = x"

let test_sl002 () =
  fires "Random.int" ~path:"lib/core/agent.ml" ~code:"SL002" "let x = Random.int 10";
  fires "Random.State" ~path:"lib/workload/driver.ml" ~code:"SL002"
    "let s = Random.State.make_self_init ()";
  fires "Stdlib-qualified" ~path:"lib/net/simnet.ml" ~code:"SL002" "let x = Stdlib.Random.bits ()";
  silent "inside prng.ml" ~path:"lib/crypto/prng.ml" ~code:"SL002"
    "let s = Random.State.make_self_init ()";
  silent "seeded prng" ~path:"lib/core/agent.ml" ~code:"SL002"
    "let x rng = Prng.random_int rng 10";
  silent "pragma" ~path:"lib/core/agent.ml" ~code:"SL002"
    "(* sfslint: allow SL002 — jitter for a non-protocol heuristic *)\nlet x = Random.int 10"

let test_sl003 () =
  fires "gettimeofday" ~path:"lib/net/simnet.ml" ~code:"SL003"
    "let now () = Unix.gettimeofday ()";
  fires "Sys.time" ~path:"lib/crypto/prng.ml" ~code:"SL003" "let t = Sys.time ()";
  fires "Unix.time" ~path:"lib/nfs/memfs.ml" ~code:"SL003" "let t = Unix.time ()";
  silent "inside simclock.ml" ~path:"lib/net/simclock.ml" ~code:"SL003"
    "let now () = Unix.gettimeofday ()";
  silent "simulated clock" ~path:"lib/net/simnet.ml" ~code:"SL003"
    "let now clock = Simclock.now_us clock";
  silent "pragma" ~path:"lib/net/simnet.ml" ~code:"SL003"
    "(* sfslint: allow SL003 — wall clock for log timestamps only *)\nlet now () = Unix.time ()"

let test_sl004 () =
  fires "failwith in dec_" ~path:"lib/xdr/sunrpc.ml" ~code:"SL004"
    {|let dec_thing d = failwith "bad"|};
  fires "invalid_arg in decode" ~path:"lib/proto/keyneg.ml" ~code:"SL004"
    {|let decode_req s = invalid_arg "nope"|};
  fires "raise in parse_" ~path:"lib/proto/channel.ml" ~code:"SL004"
    "let parse_hdr s = raise Exit";
  fires "raise in _of_string" ~path:"lib/proto/authproto.ml" ~code:"SL004"
    "let thing_of_string s = raise Not_found";
  fires "nested helper inherits decoder scope" ~path:"lib/xdr/xdr.ml" ~code:"SL004"
    {|let dec_outer d = let helper x = failwith "inner" in helper d|};
  silent "Xdr.error is the sanctioned path" ~path:"lib/proto/keyneg.ml" ~code:"SL004"
    {|let dec_thing d = Xdr.error "bad tag %d" 3|};
  silent "encoder may guard" ~path:"lib/xdr/sunrpc.ml" ~code:"SL004"
    {|let enc_thing e = invalid_arg "too large"|};
  silent "outside xdr/proto" ~path:"lib/core/sfskey.ml" ~code:"SL004"
    {|let dec_thing d = failwith "bad"|};
  silent "pragma" ~path:"lib/xdr/sunrpc.ml" ~code:"SL004"
    {|let dec_thing d = (* sfslint: allow SL004 — unreachable: length checked above *) failwith "bad"|}

let test_sl005 () =
  fires "toplevel Hashtbl" ~path:"lib/core/authserv.ml" ~code:"SL005"
    "let table = Hashtbl.create 16";
  fires "toplevel ref" ~path:"lib/workload/report.ml" ~code:"SL005" "let counter = ref 0";
  fires "toplevel Buffer under constraint" ~path:"lib/util/hex.ml" ~code:"SL005"
    "let buf : Buffer.t = Buffer.create 64";
  fires "toplevel in nested module" ~path:"lib/core/server.ml" ~code:"SL005"
    "module Cache = struct let slots = Array.make 8 None end";
  silent "constructed inside a function" ~path:"lib/core/authserv.ml" ~code:"SL005"
    "let make () = Hashtbl.create 16";
  silent "constant table literal" ~path:"lib/crypto/blowfish.ml" ~code:"SL005"
    "let tbl = [| 1; 2; 3 |]";
  silent "expression-level let" ~path:"lib/bignum/nat.ml" ~code:"SL005"
    "let f x = let acc = ref 0 in acc := x; !acc";
  silent "pragma" ~path:"lib/core/authserv.ml" ~code:"SL005"
    "(* sfslint: allow SL005 — registry is process-wide by design *)\nlet table = Hashtbl.create 16"

let test_sl006 () =
  fires "Obj.magic" ~path:"lib/workload/compile.ml" ~code:"SL006" "let f x = Obj.magic x";
  fires "Marshal" ~path:"lib/nfs/cachefs.ml" ~code:"SL006"
    "let save x = Marshal.to_string x []";
  silent "typed codec" ~path:"lib/nfs/cachefs.ml" ~code:"SL006"
    "let save x = Xdr.encode enc_thing x";
  silent "pragma" ~path:"lib/workload/compile.ml" ~code:"SL006"
    "(* sfslint: allow SL006 — benchmarking allocator behavior *)\nlet f x = Obj.magic x"

let test_sl007 () =
  let missing ~path ~has_mli ~source =
    Lint.missing_interface ~path ~source ~has_mli () <> None
  in
  Alcotest.(check bool) "fires without mli" true
    (missing ~path:"lib/nfs/nfs_types.ml" ~has_mli:false ~source:"let x = 1");
  Alcotest.(check bool) "silent with mli" false
    (missing ~path:"lib/nfs/nfs_types.ml" ~has_mli:true ~source:"let x = 1");
  Alcotest.(check bool) "outside lib" false
    (missing ~path:"tools/sfslint/main.ml" ~has_mli:false ~source:"let x = 1");
  Alcotest.(check bool) "pragma anywhere in file" false
    (missing ~path:"lib/nfs/nfs_types.ml" ~has_mli:false
       ~source:"let x = 1\n(* sfslint: allow SL007 — generated stub, interface pending *)")

let test_sl008 () =
  fires "print_endline" ~path:"lib/core/client.ml" ~code:"SL008"
    {|let f () = print_endline "mounted"|};
  fires "Printf.printf" ~path:"lib/nfs/cachefs.ml" ~code:"SL008"
    {|let f n = Printf.printf "hits: %d\n" n|};
  fires "Format.printf" ~path:"lib/workload/report.ml" ~code:"SL008"
    {|let f n = Format.printf "%d@." n|};
  fires "print_string" ~path:"lib/obs/obs.ml" ~code:"SL008"
    {|let f s = print_string s|};
  silent "sprintf returns a string" ~path:"lib/workload/report.ml" ~code:"SL008"
    {|let f n = Printf.sprintf "hits: %d" n|};
  silent "Buffer-based rendering" ~path:"lib/obs/obs.ml" ~code:"SL008"
    "let f b s = Buffer.add_string b s";
  silent "outside lib" ~path:"bench/main.ml" ~code:"SL008"
    {|let f () = print_endline "ok"|};
  silent "outside lib (tools)" ~path:"tools/sfslint/main.ml" ~code:"SL008"
    {|let f d = Printf.printf "%s\n" d|};
  silent "pragma" ~path:"lib/workload/driver.ml" ~code:"SL008"
    "(* sfslint: allow SL008 — progress line for interactive debugging *)\nlet f () = print_newline ()"

let test_sl009 () =
  fires "String.map on wire path" ~path:"lib/crypto/arc4.ml" ~code:"SL009"
    {|let f s = String.map (fun c -> Char.chr (Char.code c lxor 1)) s|};
  fires "String.init keystream" ~path:"lib/crypto/prng.ml" ~code:"SL009"
    {|let f n g = String.init n (fun _ -> Char.chr (g ()))|};
  fires "String.mapi" ~path:"lib/proto/channel.ml" ~code:"SL009"
    {|let f s = String.mapi (fun _ c -> c) s|};
  (* Concatenation and String.sub are flagged only in the five hot
     files, where per-message or per-draw copies cost a figure. *)
  fires "concat in hot file" ~path:"lib/proto/channel.ml" ~code:"SL009"
    {|let f a b = a ^ b|};
  fires "String.sub in hot file" ~path:"lib/crypto/mac.ml" ~code:"SL009"
    {|let f s = String.sub s 0 20|};
  fires "String.sub on the generator path" ~path:"lib/crypto/prng.ml" ~code:"SL009"
    {|let f s = String.sub s 0 20|};
  silent "concat off the hot path" ~path:"lib/proto/hostid.ml" ~code:"SL009"
    {|let f a b = a ^ b|};
  silent "String.sub off the hot path" ~path:"lib/crypto/srp.ml" ~code:"SL009"
    {|let f s = String.sub s 0 20|};
  silent "outside crypto/proto" ~path:"lib/xdr/xdr.ml" ~code:"SL009"
    {|let f s = String.map (fun c -> c) s|};
  silent "block-wise Bytes building" ~path:"lib/crypto/arc4.ml" ~code:"SL009"
    {|let f n = Bytes.unsafe_to_string (Bytes.create n)|};
  silent "pragma" ~path:"lib/proto/channel.ml" ~code:"SL009"
    "(* sfslint: allow SL009 — one-time counter names at create *)\nlet f a b = a ^ b"

let test_sl010 () =
  fires "call_measured in the replica push" ~path:"lib/core/replica.ml" ~code:"SL010"
    {|let f conn wire = Simnet.call_measured conn wire|};
  fires "fully qualified, in a workload" ~path:"lib/workload/flashcrowd.ml" ~code:"SL010"
    {|let f conn wire = Sfs_net.Simnet.call_measured conn wire|};
  fires "as a value, in the SFS client" ~path:"lib/core/client.ml" ~code:"SL010"
    {|let f conn = Readonly.connect ~exchange:(Simnet.call_measured conn)|};
  silent "the mux constructor" ~path:"lib/net/rpc_mux.ml" ~code:"SL010"
    {|let f conn wire = Simnet.call_measured conn wire|};
  silent "the data path builder" ~path:"lib/nfs/nfs_client.ml" ~code:"SL010"
    {|let f conn wire = Simnet.call_measured conn wire|};
  silent "priced through a mux" ~path:"lib/core/replica.ml" ~code:"SL010"
    {|let f mux wire = Rpc_mux.call mux wire|};
  silent "outside lib/" ~path:"test/test_net.ml" ~code:"SL010"
    {|let f conn wire = Simnet.call_measured conn wire|};
  silent "waived" ~path:"lib/core/replica.ml" ~code:"SL010"
    "(* sfslint: allow SL010 — the caller prices this exchange itself *)\nlet f conn wire = Simnet.call_measured conn wire"

let test_sl000_pragma_hygiene () =
  fires "no codes" ~path:"lib/core/vfs.ml" ~code:"SL000"
    "(* sfslint: allow *)\nlet x = 1";
  fires "unknown code" ~path:"lib/core/vfs.ml" ~code:"SL000"
    "(* sfslint: allow SL999 — no such rule *)\nlet x = 1";
  fires "missing justification is SL011, not SL000" ~path:"lib/core/vfs.ml"
    ~code:"SL011" "(* sfslint: allow SL001 *)\nlet x = 1";
  fires "unknown directive" ~path:"lib/core/vfs.ml" ~code:"SL000"
    "(* sfslint: disable SL001 — wrong verb *)\nlet x = 1";
  silent "well-formed pragma" ~path:"lib/core/vfs.ml" ~code:"SL000"
    "(* sfslint: allow SL001 — a justified waiver *)\nlet x = 1";
  (* A malformed pragma never suppresses. *)
  fires "malformed pragma does not suppress" ~path:"lib/crypto/mac.ml" ~code:"SL001"
    "(* sfslint: allow SL001 *)\nlet f ~tag x = tag = x"

let test_sl011_bare_waiver () =
  fires "bare pragma is its own violation" ~path:"lib/core/vfs.ml" ~code:"SL011"
    "(* sfslint: allow SL003 *)\nlet x = 1";
  fires "bare pragma with several codes" ~path:"lib/core/vfs.ml" ~code:"SL011"
    "(* sfslint: allow SL001 SL002 *)\nlet x = 1";
  silent "justified pragma" ~path:"lib/core/vfs.ml" ~code:"SL011"
    "(* sfslint: allow SL003 — OS entropy is fine in a demo binary *)\nlet x = 1";
  silent "ascii double-dash separator" ~path:"lib/core/vfs.ml" ~code:"SL011"
    "(* sfslint: allow SL003 -- OS entropy is fine in a demo binary *)\nlet x = 1";
  (* The bare pragma does not suppress the violation it names. *)
  fires "bare pragma does not suppress" ~path:"lib/crypto/mac.ml" ~code:"SL001"
    "(* sfslint: allow SL001 *)\nlet f ~tag x = tag = x"

let test_sl012_span_bracketing () =
  fires "span_begin with no span_end leaks" ~path:"lib/core/client.ml" ~code:"SL012"
    "let f obs = Obs.span_begin obs ~cat:\"op\" \"read\"";
  fires "qualified span_begin" ~path:"lib/nfs/cachefs.ml" ~code:"SL012"
    "let f obs = Sfs_obs.Obs.span_begin obs ~cat:\"op\" \"read\"";
  (* A span_end anywhere in the same top-level item satisfies the
     heuristic — including on an exception path. *)
  silent "begin/end in the same item" ~path:"lib/core/client.ml" ~code:"SL012"
    "let f obs =\n\
    \  let os = Obs.span_begin obs ~cat:\"op\" \"read\" in\n\
    \  match work () with v -> Obs.span_end os; v | exception e -> Obs.span_end os; raise e";
  (* Closing in a different top-level item does not count: the opener's
     item still leaks on its own paths. *)
  fires "end in a different item" ~path:"lib/core/client.ml" ~code:"SL012"
    "let f obs = Obs.span_begin obs ~cat:\"op\" \"read\"\nlet g os = Obs.span_end os";
  silent "delegation waived with a pragma" ~path:"lib/core/client.ml" ~code:"SL012"
    "(* sfslint: allow SL012 — the mux closes the span at ready time *)\n\
     let f obs = Obs.span_begin obs ~cat:\"op\" \"read\"";
  silent "outside lib/" ~path:"bench/main.ml" ~code:"SL012"
    "let f obs = Obs.span_begin obs ~cat:\"op\" \"read\""

let test_sl013_zero_copy_read_path () =
  fires "Bytes.create in a *_slice binding" ~path:"lib/xdr/xdr.ml" ~code:"SL013"
    "let dec_rest_slice d = let buf = Bytes.create 16 in view buf";
  fires "Bytes.create in the channel's lending open" ~path:"lib/proto/channel.ml" ~code:"SL013"
    "let open_with t wire f = let frame = Bytes.create 16 in f frame";
  fires "String.sub in the block cache's copy-out" ~path:"lib/nfs/cachefs.ml" ~code:"SL013"
    "let copy_out t h a ~off ~count = Some (String.sub (block t h) 0 count, false, a)";
  fires "String.sub in a cache feeder" ~path:"lib/nfs/cachefs.ml" ~code:"SL013"
    "let note_block t h b data = store t h b (String.sub data 0 8192)";
  fires "Bytes.sub_string in the slice codec" ~path:"lib/xdr/xdr.ml" ~code:"SL013"
    "let dec_opaque_slice d = Bytes.sub_string d.data d.pos 8";
  fires "Bytes.make in Memfs's block read" ~path:"lib/nfs/memfs.ml" ~code:"SL013"
    "let read_blocks f ~off ~n = let out = Bytes.make n '\\000' in fill f out";
  fires "Bytes.create in the DRC insert" ~path:"lib/nfs/drc.ml" ~code:"SL013"
    "let admit t key v = let reply = Bytes.create 8192 in store t key reply";
  fires "Bytes.create in the SFS server's DRC buffer choice" ~path:"lib/core/server.ml"
    ~code:"SL013" "let drc_insert t s key = let reply = Bytes.create 8192 in store t key reply";
  fires "Xdr.to_string in the NFS 3 reply builder" ~path:"lib/nfs/nfs_server.ml" ~code:"SL013"
    "let handle_call t e c = let results = Xdr.to_string e in reply t results";
  silent "pragma for the NFS 3 wire message" ~path:"lib/nfs/nfs_server.ml" ~code:"SL013"
    "let service t = fun bytes ->\n\
    \  (* sfslint: allow SL013 — the wire message, which the DRC entry keeps *)\n\
    \  Xdr.to_string t.enc";
  fires "String.sub at the server's seal" ~path:"lib/core/server.ml" ~code:"SL013"
    "let fs_connection t = fun bytes -> seal t (String.sub bytes 0 4)";
  silent "copy outside the audited server bindings" ~path:"lib/core/server.ml" ~code:"SL013"
    "let revoke t = Bytes.create 16";
  silent "Slice view construction" ~path:"lib/proto/channel.ml" ~code:"SL013"
    "let open_with t wire f = f (Sfs_util.Slice.make wire ~off:4 ~len:10)";
  silent "copy outside the audited bindings" ~path:"lib/proto/channel.ml" ~code:"SL013"
    "let seal t msg = Bytes.create 16";
  silent "copy outside the audited files" ~path:"lib/core/client.ml" ~code:"SL013"
    "let open_with t wire = Bytes.create 16";
  silent "pragma for an inherent copy" ~path:"lib/proto/channel.ml" ~code:"SL013"
    "let open_with t wire =\n\
    \  (* sfslint: allow SL013 — fixed-size MAC tag scratch *)\n\
    \  let tag = Bytes.create 20 in\n\
    \  check tag"

(* SL014 reads the whole tree: one interface, its own .ml, and whatever
   consumer sources a case adds. *)
let sl014 ?(itf = "val used : int\nval dead : int -> int") uses =
  let own = ("lib/util/m.ml", "let used = 1\nlet dead x = x + used") in
  match Lint.unused_exports ~interfaces:[ ("lib/util/m.mli", itf) ] ~uses:(own :: uses) () with
  | Ok ds -> List.map (fun d -> (d.Lint.code, d.Lint.line)) ds
  | Error e -> Alcotest.failf "unexpected parse error: %s" e

let test_sl014_unused_exports () =
  let flags msg expected uses =
    Alcotest.(check (list (pair string int))) msg expected (sl014 uses)
  in
  let user = ("lib/core/c.ml", "let f = M.used") in
  flags "only its own .ml uses 'dead'" [ ("SL014", 2) ] [ user ];
  flags "unused everywhere" [ ("SL014", 1); ("SL014", 2) ] [];
  flags "a same-named value of another module is no use" [ ("SL014", 2) ]
    [ user; ("lib/core/d.ml", "let g = N.dead 1") ];
  flags "a bare name without an open is no use" [ ("SL014", 2) ]
    [ user; ("lib/core/d.ml", "let g = dead 1") ];
  flags "qualified through the library path" [] [ user; ("lib/core/d.ml", "let g = Sfs_util.M.dead") ];
  flags "through a module alias" []
    [ user; ("lib/core/d.ml", "module Q = Sfs_util.M\nlet g = Q.dead 1") ];
  flags "through a let-module alias" []
    [ user; ("lib/core/d.ml", "let g = let module Q = M in Q.dead 1") ];
  flags "through open" [] [ user; ("lib/core/d.ml", "open Sfs_util.M\nlet g = dead 1") ];
  flags "through a local open" [] [ user; ("lib/core/d.ml", "let g = M.(dead 1)") ];
  flags "a test is not a program: a use under test/ is no use" [ ("SL014", 2) ]
    [ user; ("test/test_m.ml", "let t () = M.dead 1") ];
  flags "from perfbench/" [] [ user; ("perfbench/probes.ml", "let p = Sfs_util.M.dead") ];
  Alcotest.(check (list (pair string int)))
    "a reasoned pragma waives" []
    (sl014
       ~itf:"val used : int\n(* sfslint: allow SL014 — the REPL printer set keeps it *)\nval dead : int -> int"
       [ user ]);
  Alcotest.(check (list (pair string int)))
    "a test-only export with a reasoned pragma stays" []
    (sl014
       ~itf:"val used : int\n(* sfslint: allow SL014 — the known-answer test compares against it *)\nval dead : int -> int"
       [ user; ("test/test_m.ml", "let t () = M.dead 1") ]);
  Alcotest.(check (list (pair string int)))
    "a pragma without a reason waives nothing" [ ("SL011", 2); ("SL014", 3) ]
    (sl014 ~itf:"val used : int\n(* sfslint: allow SL014 *)\nval dead : int -> int" [ user ]);
  Alcotest.(check (list (pair string int)))
    "disabled" []
    (match
       Lint.unused_exports ~enabled:[ "SL001" ] ~interfaces:[ ("lib/util/m.mli", "val dead : int") ]
         ~uses:[] ()
     with
    | Ok ds -> List.map (fun d -> (d.Lint.code, d.Lint.line)) ds
    | Error e -> Alcotest.failf "unexpected parse error: %s" e)

let test_enable_disable () =
  let src = "let x = Random.int 10\nlet f ~tag y = tag = y" in
  let all = codes ~path:"lib/core/agent.ml" src in
  Alcotest.(check bool) "both fire by default" true
    (List.mem "SL001" all && List.mem "SL002" all);
  let only2 = codes ~enabled:[ "SL002" ] ~path:"lib/core/agent.ml" src in
  Alcotest.(check bool) "SL001 filtered out" false (List.mem "SL001" only2);
  Alcotest.(check bool) "SL002 kept" true (List.mem "SL002" only2)

let test_engine_robustness () =
  (match Lint.check_source ~path:"lib/core/x.ml" ~source:"let x = (" () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected a parse error");
  (* Comments, strings and char literals do not confuse the pragma
     scanner: a '"' char literal must not open a string. *)
  silent "char literal then pragma" ~path:"lib/crypto/mac.ml" ~code:"SL001"
    "let q = '\"'\n(* sfslint: allow SL001 — quoting torture test *)\nlet f ~tag x = tag = x";
  (* The JSON report is well-formed enough to carry counts. *)
  let ds = check ~path:"lib/crypto/mac.ml" "let f ~tag x = tag = x" in
  let json = Lint.report_json ~files_checked:1 ds in
  Alcotest.(check bool) "report mentions SL001" true
    (let rec has i =
       i + 5 <= String.length json && (String.sub json i 5 = "SL001" || has (i + 1))
     in
     has 0)

let suite =
  ( "lint",
    [
      Alcotest.test_case "SL001 constant-time comparison" `Quick test_sl001;
      Alcotest.test_case "SL001 pragma handling" `Quick test_sl001_pragma;
      Alcotest.test_case "SL002 prng discipline" `Quick test_sl002;
      Alcotest.test_case "SL003 simulated time" `Quick test_sl003;
      Alcotest.test_case "SL004 total decoders" `Quick test_sl004;
      Alcotest.test_case "SL005 toplevel state" `Quick test_sl005;
      Alcotest.test_case "SL006 unsafe casts" `Quick test_sl006;
      Alcotest.test_case "SL007 interface files" `Quick test_sl007;
      Alcotest.test_case "SL008 stdout silence" `Quick test_sl008;
      Alcotest.test_case "SL009 wire-path string building" `Quick test_sl009;
      Alcotest.test_case "SL010 unpriced exchange" `Quick test_sl010;
      Alcotest.test_case "SL000 pragma hygiene" `Quick test_sl000_pragma_hygiene;
      Alcotest.test_case "SL011 bare waiver pragma" `Quick test_sl011_bare_waiver;
      Alcotest.test_case "SL012 span bracketing" `Quick test_sl012_span_bracketing;
      Alcotest.test_case "SL013 zero-copy read path" `Quick test_sl013_zero_copy_read_path;
      Alcotest.test_case "SL014 unused exports" `Quick test_sl014_unused_exports;
      Alcotest.test_case "enable/disable filtering" `Quick test_enable_disable;
      Alcotest.test_case "engine robustness" `Quick test_engine_robustness;
    ] )
