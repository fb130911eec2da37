(* benchdiff: the perf-trend gate over BENCH_results.json lines.

   The byte-diff in `make perf` catches ANY drift; this tool answers
   the narrower question "did performance get materially worse?" so a
   legitimately regenerated BENCH_results.json still cannot smuggle in
   a regression.  It compares two result files (one JSON object per
   line, as the bench harness appends) and fails when, for any figure:

     - a throughput column drops by more than 10% vs the baseline, or
     - a critical-path p99 inflates by more than 15% vs the baseline, or
     - a `crypto` figure case's alloc_b_per_op — the deterministic
       bytes-allocated-per-op work proxy — grows by more than 10%, or
     - a `crypto` figure case's ns_per_op inflates past a coarse 2.5x
       backstop after dividing out the host-speed drift, the median ns
       ratio over the cases whose allocation did not move (time on a
       shared virtualized host is too noisy for a tight gate; the
       allocation column is the hard 10% gate, time only catches
       non-allocating disasters).

   Any of these may be waived by an explicit allowlist entry (one key
   per line; `#` comments), so waivers are visible in review — never
   implicit.  Keys:

     figure/system              waives that row's throughput check
     figure/label/op            waives that op's p99 check
     crypto/case                waives that case's alloc and ns checks

   Usage: benchdiff --baseline FILE --current FILE [--allow FILE]

   Rows present on only one side are reported but never fail the gate:
   adding a figure or renaming a row is an intentional, reviewable
   change, and the byte-diff gate flags it anyway.

   Before the gates, a drift report names every simulated-figure cell
   and every critical-path op whose value moved at all, e.g.

     [drift] faults/sfs-mab-drop1-delay50#seconds: 9.161 -> 9.075
     [drift] scale/scale/serial/1/write/wb: wall_us 299.598 -> 311.745, p50_us 303 -> 319

   so a one-cell move is named instead of surfacing as a whole-figure
   JSON line in the byte-diff.  The report never fails the gate. *)

let throughput_drop_tolerance = 0.10
let p99_inflation_tolerance = 0.15
let crypto_alloc_inflation_tolerance = 0.10
let crypto_ns_backstop_tolerance = 1.5 (* fail past 2.5x the baseline *)

(* --- A minimal JSON reader (no dependencies). ---
   Supports exactly the subset the bench harness emits: objects,
   arrays, double-quoted strings with backslash escapes, numbers,
   true/false/null. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad_json of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at byte %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word then begin
      pos := !pos + String.length word;
      v
    end
    else fail ("expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      if c = '"' then Buffer.contents buf
      else if c = '\\' then begin
        (if !pos >= n then fail "unterminated escape");
        let e = s.[!pos] in
        advance ();
        (match e with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'n' -> Buffer.add_char buf '\n'
        | 't' -> Buffer.add_char buf '\t'
        | 'r' -> Buffer.add_char buf '\r'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'u' ->
            if !pos + 4 > n then fail "truncated \\u escape";
            let hex = String.sub s !pos 4 in
            pos := !pos + 4;
            let code = int_of_string ("0x" ^ hex) in
            (* The reports are ASCII; anything else round-trips lossily
               but never crashes the gate. *)
            if code < 0x80 then Buffer.add_char buf (Char.chr code)
            else Buffer.add_char buf '?'
        | _ -> fail "bad escape");
        go ()
      end
      else begin
        Buffer.add_char buf c;
        go ()
      end
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    if !pos = start then fail "expected number";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "unparsable number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((key, v) :: acc)
            | Some '}' ->
                advance ();
                Obj (List.rev ((key, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          members []
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elems (v :: acc)
            | Some ']' ->
                advance ();
                Arr (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          elems []
        end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
    | None -> fail "unexpected end of input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing bytes";
  v

let member (key : string) (j : json) : json option =
  match j with Obj kvs -> List.assoc_opt key kvs | _ -> None

let str_of = function Str s -> s | _ -> raise (Bad_json "expected string")
let num_of = function Num f -> f | _ -> raise (Bad_json "expected number")

(* --- Extracting the compared metrics --- *)

(* key -> value; keys are "figure/system#header" for throughput columns,
   "figure/label/op" for critical-path p99s, and "crypto/case#<column>"
   for the crypto micro-benchmarks (lower is better in both columns). *)
type metrics = {
  thr : (string * float) list;
  p99 : (string * float) list;
  ns : (string * float) list;
  alloc : (string * float) list;
  cells : (string * float) list; (* every simulated-figure row value, "figure/system#header" *)
  cp_ops : (string * (string * float) list) list;
      (* "figure/label/op" -> its count, wall time and quantiles *)
}

let cp_fields = [ "count"; "wall_us"; "p50_us"; "p95_us"; "p99_us" ]

let metrics_of_file (path : string) : metrics =
  let ic = open_in path in
  let thr = ref [] and p99 = ref [] and ns = ref [] and alloc = ref [] in
  let cells = ref [] and cp_ops = ref [] in
  (try
     while true do
       let line = input_line ic in
       if String.trim line <> "" then begin
         let j = parse_json line in
         let fig = match member "figure" j with Some s -> str_of s | None -> "" in
         (* The crypto figure measures real work per op (CPU time plus
            the deterministic allocation proxy), so it gets its own
            gates instead of the throughput check. *)
         if fig = "crypto" then begin
           let headers =
             match member "headers" j with Some (Arr hs) -> List.map str_of hs | _ -> []
           in
           match member "rows" j with
           | Some (Arr rows) ->
               List.iter
                 (fun row ->
                   let case = match member "system" row with Some s -> str_of s | None -> "?" in
                   let values =
                     match member "values" row with Some (Arr vs) -> List.map num_of vs | _ -> []
                   in
                   List.iteri
                     (fun i v ->
                       let key h = Printf.sprintf "%s/%s#%s" fig case h in
                       match List.nth_opt headers i with
                       | Some "ns_per_op" -> ns := (key "ns_per_op", v) :: !ns
                       | Some "alloc_b_per_op" -> alloc := (key "alloc_b_per_op", v) :: !alloc
                       | _ -> ())
                     values)
                 rows
           | _ -> ()
         end
         else if fig <> "" then begin
           let headers =
             match member "headers" j with
             | Some (Arr hs) -> List.map str_of hs
             | _ -> []
           in
           (match member "rows" j with
           | Some (Arr rows) ->
               List.iter
                 (fun row ->
                   let system = match member "system" row with Some s -> str_of s | None -> "?" in
                   let values =
                     match member "values" row with
                     | Some (Arr vs) -> List.map num_of vs
                     | _ -> []
                   in
                   List.iteri
                     (fun i v ->
                       match List.nth_opt headers i with
                       | Some h ->
                           let key = Printf.sprintf "%s/%s#%s" fig system h in
                           cells := (key, v) :: !cells;
                           if String.length h >= 10 && String.sub h 0 10 = "throughput" then
                             thr := (key, v) :: !thr
                       | None -> ())
                     values)
                 rows
           | _ -> ());
           match member "critical_path" j with
           | Some (Obj labels) ->
               List.iter
                 (fun (label, ops) ->
                   match ops with
                   | Obj ops ->
                       List.iter
                         (fun (op, agg) ->
                           let key = Printf.sprintf "%s/%s/%s" fig label op in
                           let fields =
                             List.filter_map
                               (fun f ->
                                 match member f agg with Some (Num v) -> Some (f, v) | _ -> None)
                               cp_fields
                           in
                           cp_ops := (key, fields) :: !cp_ops;
                           match List.assoc_opt "p99_us" fields with
                           | Some v -> p99 := (key, v) :: !p99
                           | None -> ())
                         ops
                   | _ -> ())
                 labels
           | _ -> ()
         end
       end
     done
   with End_of_file -> ());
  close_in ic;
  {
    thr = List.rev !thr;
    p99 = List.rev !p99;
    ns = List.rev !ns;
    alloc = List.rev !alloc;
    cells = List.rev !cells;
    cp_ops = List.rev !cp_ops;
  }

(* The drift report: every matched cell or critical-path op whose
   value moved, however little.  Report only — the gates below and the
   byte-diff decide. *)
let report_drift (base : metrics) (cur : metrics) : int =
  let num v = if Float.is_integer v then Printf.sprintf "%.0f" v else Printf.sprintf "%.3f" v in
  let moved = ref 0 in
  List.iter
    (fun (key, b) ->
      match List.assoc_opt key cur.cells with
      | Some c when c <> b ->
          incr moved;
          Printf.printf "  [drift] %s: %.3f -> %.3f\n" key b c
      | _ -> ())
    base.cells;
  List.iter
    (fun (key, bf) ->
      match List.assoc_opt key cur.cp_ops with
      | None -> ()
      | Some cf ->
          let changes =
            List.filter_map
              (fun (f, b) ->
                match List.assoc_opt f cf with
                | Some c when c <> b -> Some (Printf.sprintf "%s %s -> %s" f (num b) (num c))
                | _ -> None)
              bf
          in
          if changes <> [] then begin
            incr moved;
            Printf.printf "  [drift] %s: %s\n" key (String.concat ", " changes)
          end)
    base.cp_ops;
  !moved

let load_allowlist (path : string option) : string list =
  match path with
  | None -> []
  | Some p ->
      let ic = open_in p in
      let keys = ref [] in
      (try
         while true do
           let line = String.trim (input_line ic) in
           if line <> "" && line.[0] <> '#' then
             (* Everything after the key is justification text. *)
             let key = match String.index_opt line ' ' with
               | Some i -> String.sub line 0 i
               | None -> line
             in
             keys := key :: !keys
         done
       with End_of_file -> ());
      close_in ic;
      !keys

(* The throughput allowlist key is figure/system (header-independent);
   p99 keys match verbatim. *)
let waived (allow : string list) (key : string) : bool =
  List.mem key allow
  ||
  match String.index_opt key '#' with
  | Some i -> List.mem (String.sub key 0 i) allow
  | None -> false

let () =
  let baseline = ref None and current = ref None and allow_file = ref None in
  let rec parse_args = function
    | [] -> ()
    | "--baseline" :: f :: rest ->
        baseline := Some f;
        parse_args rest
    | "--current" :: f :: rest ->
        current := Some f;
        parse_args rest
    | "--allow" :: f :: rest ->
        allow_file := Some f;
        parse_args rest
    | a :: _ ->
        prerr_endline ("benchdiff: unknown argument " ^ a);
        exit 2
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let baseline, current =
    match (!baseline, !current) with
    | Some b, Some c -> (b, c)
    | _ ->
        prerr_endline "usage: benchdiff --baseline FILE --current FILE [--allow FILE]";
        exit 2
  in
  let base = metrics_of_file baseline and cur = metrics_of_file current in
  let allow = load_allowlist !allow_file in
  let drifted = report_drift base cur in
  let failures = ref 0 and compared = ref 0 and waivers = ref 0 in
  let check ~(kind : string) ~(worse : float -> float -> bool) ~(tolerance : float)
      (base_kv : (string * float) list) (cur_kv : (string * float) list) : unit =
    List.iter
      (fun (key, b) ->
        match List.assoc_opt key cur_kv with
        | None -> Printf.printf "  [gone]  %s %s (baseline %.3f)\n" kind key b
        | Some c ->
            incr compared;
            if b > 0.0 && worse b c then
              if waived allow key then begin
                incr waivers;
                Printf.printf "  [waived] %s %s: %.3f -> %.3f (> %.0f%% worse, allowlisted)\n" kind
                  key b c (tolerance *. 100.0)
              end
              else begin
                incr failures;
                Printf.printf "  [FAIL]  %s %s: %.3f -> %.3f exceeds the %.0f%% budget\n" kind key
                  b c (tolerance *. 100.0)
              end)
      base_kv;
    List.iter
      (fun (key, c) ->
        if List.assoc_opt key base_kv = None then
          Printf.printf "  [new]   %s %s (current %.3f)\n" kind key c)
      cur_kv
  in
  check ~kind:"throughput"
    ~worse:(fun b c -> c < b *. (1.0 -. throughput_drop_tolerance))
    ~tolerance:throughput_drop_tolerance base.thr cur.thr;
  check ~kind:"p99"
    ~worse:(fun b c -> c > b *. (1.0 +. p99_inflation_tolerance))
    ~tolerance:p99_inflation_tolerance base.p99 cur.p99;
  (* The deterministic allocation column is the real crypto gate: it is
     byte-reproducible run to run, so 10% means 10%. *)
  check ~kind:"alloc_b_per_op"
    ~worse:(fun b c -> c > b *. (1.0 +. crypto_alloc_inflation_tolerance))
    ~tolerance:crypto_alloc_inflation_tolerance base.alloc cur.alloc;
  (* Real-CPU numbers drift with host speed (neighbor load, frequency
     scaling, hypervisor steal): consecutive clean runs of the crypto
     figure routinely move individual cases tens of percent.  The
     backstop removes the common factor first — the median
     current/baseline ratio — then fails only a case that still
     inflated past 2.5x: a non-allocating catastrophic regression, not
     measurement noise.  A genuine regression moves one case against
     the pack; a loaded machine moves the pack together.  The median
     is taken over the cases whose allocation stayed inside the alloc
     gate's band, i.e. whose work did not change: a kernel change that
     speeds up most cases would otherwise read as a faster host, and
     dividing that out would make the untouched cases look slower.
     When no case qualifies, every matched case counts. *)
  let ns_norm, ns_norm_cases =
    let alloc_of kv k =
      let case = match String.index_opt k '#' with Some i -> String.sub k 0 i | None -> k in
      List.assoc_opt (case ^ "#alloc_b_per_op") kv
    in
    let unmoved k =
      match (alloc_of base.alloc k, alloc_of cur.alloc k) with
      | Some b, Some c -> Float.abs (c -. b) <= b *. crypto_alloc_inflation_tolerance
      | _ -> false
    in
    let ratios keep =
      List.filter_map
        (fun (k, b) ->
          match List.assoc_opt k cur.ns with
          | Some c when b > 0.0 && keep k -> Some (c /. b)
          | _ -> None)
        base.ns
    in
    let median rs =
      let rs = List.sort compare rs and n = List.length rs in
      if n mod 2 = 1 then List.nth rs (n / 2)
      else (List.nth rs ((n / 2) - 1) +. List.nth rs (n / 2)) /. 2.0
    in
    match (match ratios unmoved with [] -> ratios (fun _ -> true) | rs -> rs) with
    | [] -> (1.0, 0)
    | rs -> (median rs, List.length rs)
  in
  if base.ns <> [] then
    Printf.printf
      "  crypto host-speed factor %.3f (median ns ratio over %d case(s) with unmoved allocation, divided out)\n"
      ns_norm ns_norm_cases;
  check ~kind:"ns_per_op"
    ~worse:(fun b c -> c /. ns_norm > b *. (1.0 +. crypto_ns_backstop_tolerance))
    ~tolerance:crypto_ns_backstop_tolerance base.ns cur.ns;
  Printf.printf "benchdiff: %d metric(s) compared, %d drifted, %d failure(s), %d waiver(s)\n"
    !compared drifted !failures !waivers;
  if !failures > 0 then exit 1
