(* Deterministic observability: spans and counters keyed to the
   simulated clock.

   Everything here is driven by a [now_us] closure supplied at registry
   creation time — in practice [Sfs_net.Simclock.now_us] — never the
   wall clock, so two identical runs produce byte-identical exports.
   The registry is an explicit value created by whoever builds a stack
   and threaded down through constructors; there is no module-toplevel
   mutable state and no global default registry.

   Instrumentation sites receive a [registry option] so that a stack
   built without observability pays nothing but an option test.
   Quantiles are Sketch's job. *)

type span = {
  sp_name : string;
  sp_cat : string;
  sp_start_us : float;
  sp_dur_us : float;
  sp_depth : int;
  sp_args : (string * string) list;
  sp_trace : int; (* 0 = not part of any trace *)
  sp_span : int; (* 0 = no identity (registry-less span never recorded) *)
  sp_parent : int; (* 0 = root *)
  sp_remote : bool; (* parent context was adopted from the wire *)
}

type ctx = { cx_trace : int; cx_span : int }

(* The causal-context stack.  Execution is fully synchronous and
   single-threaded on the simulated clock, so dynamic extent equals
   causal extent: the frame on top of the stack is the op responsible
   for whatever instrumentation fires now.  [fr_remote] marks frames
   pushed by {!with_ctx} — a context that arrived over the wire — so
   spans recorded under them can be drawn as cross-component flow
   arrows. *)
type frame = { fr_trace : int; fr_span : int; fr_remote : bool }

(* One sampled critical-path decomposition: an RPC exchange broken into
   additive segments that sum to [cp_wall_us] (checked by the tests).
   The [_ctr] fields carry the exact integer each direction's
   [Channel.seal] billed to its crypto_us counter, so aggregate crypto
   attribution can be reconciled against the counters. *)
type cp_sample = {
  cp_op : string;
  cp_trace : int;
  cp_span : int;
  cp_start_us : float;
  cp_wall_us : float;
  cp_segments : (string * float) list;
  cp_crypto_up_ctr : int;
  cp_crypto_down_ctr : int;
}

(* A retained sample, stored compactly: a registry keeps up to
   [max_spans] of them, so the segment values sit unboxed in one float
   array and the names array is reused from the previous sample
   whenever the layout repeats. *)
type cp_stored = {
  cs_sample : cp_sample; (* with [cp_segments = []] *)
  cs_names : string array;
  cs_values : float array;
}

type registry = {
  now_us : unit -> float;
  max_spans : int;
  mutable spans : span list; (* completion order, newest first *)
  mutable span_count : int;
  mutable dropped_spans : int;
  mutable depth : int;
  counters : (string, int ref) Hashtbl.t;
  (* trace ids are plain counters — deterministic by construction, and
     never derived from key material or the Prng *)
  mutable next_span : int;
  mutable next_trace : int;
  mutable ctx_stack : frame list;
  mutable cps : cp_stored list; (* newest first *)
  mutable cp_names : string array; (* the last stored layout *)
  mutable cp_count : int;
  mutable dropped_cps : int;
}

let create ?(max_spans = 200_000) ~(now_us : unit -> float) () : registry =
  {
    now_us;
    max_spans;
    spans = [];
    span_count = 0;
    dropped_spans = 0;
    depth = 0;
    counters = Hashtbl.create 64;
    next_span = 1;
    next_trace = 1;
    ctx_stack = [];
    cps = [];
    cp_names = [||];
    cp_count = 0;
    dropped_cps = 0;
  }

(* -- counters -------------------------------------------------------- *)

let add (r : registry option) (name : string) (n : int) : unit =
  match r with
  | None -> ()
  | Some r -> (
      match Hashtbl.find_opt r.counters name with
      | Some c -> c := !c + n
      | None -> Hashtbl.replace r.counters name (ref n))

let incr (r : registry option) (name : string) : unit = add r name 1

let counter (r : registry) (name : string) : int =
  match Hashtbl.find_opt r.counters name with Some c -> !c | None -> 0

(* -- spans ----------------------------------------------------------- *)

let fresh_span_id (r : registry) : int =
  let id = r.next_span in
  r.next_span <- id + 1;
  id

let record_span (r : registry) (sp : span) : unit =
  if r.span_count >= r.max_spans then r.dropped_spans <- r.dropped_spans + 1
  else begin
    r.spans <- sp :: r.spans;
    r.span_count <- r.span_count + 1
  end

(* A span is recorded on completion, whether the body returns or raises:
   a body that fails (e.g. a channel open rejecting a bad MAC, or an
   RPC raising [Simnet.Timeout]) must still leave a well-formed trace.
   Depth is tracked so exporters can check nesting.

   Every span gets a fresh span id and inherits (trace, parent) from
   the top of the causal-context stack, pushing itself for its dynamic
   extent — so an [Obs.span] fired anywhere below an op root attaches
   to that op without any explicit plumbing. *)
let span_in ~(root : bool) ?(args = []) (r : registry option) ~(cat : string) (name : string)
    (f : unit -> 'a) : 'a =
  match r with
  | None -> f ()
  | Some r ->
      let start = r.now_us () in
      let depth = r.depth in
      let sid = fresh_span_id r in
      let trace, parent, remote =
        if root then begin
          let t = r.next_trace in
          r.next_trace <- t + 1;
          (t, 0, false)
        end
        else
          match r.ctx_stack with
          | [] -> (0, 0, false)
          | fr :: _ -> (fr.fr_trace, fr.fr_span, fr.fr_remote)
      in
      r.depth <- depth + 1;
      r.ctx_stack <- { fr_trace = trace; fr_span = sid; fr_remote = false } :: r.ctx_stack;
      let finish () =
        r.depth <- depth;
        (match r.ctx_stack with _ :: rest -> r.ctx_stack <- rest | [] -> ());
        record_span r
          {
            sp_name = name;
            sp_cat = cat;
            sp_start_us = start;
            sp_dur_us = r.now_us () -. start;
            sp_depth = depth;
            sp_args = args;
            sp_trace = trace;
            sp_span = sid;
            sp_parent = parent;
            sp_remote = remote;
          }
      in
      (match f () with
      | v ->
          finish ();
          v
      | exception e ->
          finish ();
          raise e)

let span ?args (r : registry option) ~(cat : string) (name : string) (f : unit -> 'a) : 'a =
  span_in ~root:false ?args r ~cat name f

let span_root ?args (r : registry option) ~(cat : string) (name : string) (f : unit -> 'a) : 'a =
  span_in ~root:true ?args r ~cat name f

let current (r : registry option) : ctx option =
  match r with
  | None -> None
  | Some r -> (
      match r.ctx_stack with
      | { fr_trace; fr_span; _ } :: _ when fr_trace > 0 ->
          Some { cx_trace = fr_trace; cx_span = fr_span }
      | _ -> None)

(* Adopt a context that arrived over the wire for the extent of [f]:
   spans recorded inside become remote children of the sender's span. *)
let with_ctx (r : registry option) (ctx : ctx option) (f : unit -> 'a) : 'a =
  match (r, ctx) with
  | None, _ | _, None -> f ()
  | Some r, Some cx when cx.cx_trace > 0 ->
      r.ctx_stack <-
        { fr_trace = cx.cx_trace; fr_span = cx.cx_span; fr_remote = true } :: r.ctx_stack;
      let pop () = match r.ctx_stack with _ :: rest -> r.ctx_stack <- rest | [] -> () in
      (match f () with
      | v ->
          pop ();
          v
      | exception e ->
          pop ();
          (* sfstaint: allow TNT004 — re-raises the callee's exception untouched after unwinding the context stack; no secret-derived value is interpolated *)
          raise e)
  | _ -> f ()

(* Explicitly bracketed spans, for ops whose begin and end are in
   different call frames (pipelined RPCs: submitted now, completed when
   the mux drains).  The open span captures its causal parent at begin
   time but does NOT occupy the context stack — overlapping in-flight
   ops would otherwise unwind out of order.  [span_end] is idempotent
   and accepts an explicit end time so an op awaited late can still be
   recorded with its true completion time. *)
type open_span = {
  os_reg : registry option;
  os_name : string;
  os_cat : string;
  os_start_us : float;
  os_sid : int;
  os_trace : int;
  os_parent : int;
  os_remote : bool;
  mutable os_closed : bool;
}

let span_begin (r : registry option) ~(cat : string) (name : string) : open_span =
  match r with
  | None ->
      {
        os_reg = None;
        os_name = name;
        os_cat = cat;
        os_start_us = 0.0;
        os_sid = 0;
        os_trace = 0;
        os_parent = 0;
        os_remote = false;
        os_closed = false;
      }
  | Some reg ->
      let trace, parent, remote =
        match reg.ctx_stack with
        | [] -> (0, 0, false)
        | fr :: _ -> (fr.fr_trace, fr.fr_span, fr.fr_remote)
      in
      {
        os_reg = r;
        os_name = name;
        os_cat = cat;
        os_start_us = reg.now_us ();
        os_sid = fresh_span_id reg;
        os_trace = trace;
        os_parent = parent;
        os_remote = remote;
        os_closed = false;
      }

let span_end ?(args = []) ?end_us (os : open_span) : unit =
  match os.os_reg with
  | None -> ()
  | Some r ->
      if not os.os_closed then begin
        os.os_closed <- true;
        let finish = match end_us with Some t -> t | None -> r.now_us () in
        record_span r
          {
            sp_name = os.os_name;
            sp_cat = os.os_cat;
            sp_start_us = os.os_start_us;
            sp_dur_us = finish -. os.os_start_us;
            sp_depth = r.depth;
            sp_args = args;
            sp_trace = os.os_trace;
            sp_span = os.os_sid;
            sp_parent = os.os_parent;
            sp_remote = os.os_remote;
          }
      end

let open_ctx (os : open_span) : ctx option =
  if os.os_trace > 0 then Some { cx_trace = os.os_trace; cx_span = os.os_sid } else None

let open_registry (os : open_span) : registry option = os.os_reg

(* -- critical-path samples ------------------------------------------- *)

let cp_record (r : registry option) (s : cp_sample) : unit =
  match r with
  | None -> ()
  | Some r ->
      if r.cp_count >= r.max_spans then r.dropped_cps <- r.dropped_cps + 1
      else begin
        let segs = s.cp_segments in
        let rec same_layout i = function
          | [] -> i = Array.length r.cp_names
          | (k, _) :: rest ->
              i < Array.length r.cp_names
              && String.equal k r.cp_names.(i)
              && same_layout (i + 1) rest
        in
        if not (same_layout 0 segs) then r.cp_names <- Array.of_list (List.map fst segs);
        let values = Array.make (Array.length r.cp_names) 0.0 in
        List.iteri (fun i (_, v) -> values.(i) <- v) segs;
        r.cps <-
          { cs_sample = { s with cp_segments = [] }; cs_names = r.cp_names; cs_values = values }
          :: r.cps;
        r.cp_count <- r.cp_count + 1
      end

let cp_samples (r : registry) : cp_sample list =
  List.rev_map
    (fun st ->
      {
        st.cs_sample with
        cp_segments = List.combine (Array.to_list st.cs_names) (Array.to_list st.cs_values);
      })
    r.cps

(* -- snapshots ------------------------------------------------------- *)

type snapshot = {
  snap_counters : (string * int) list; (* sorted by name *)
  snap_spans : span list; (* completion order *)
}

let by_name (a, _) (b, _) = compare (a : string) b

let snapshot (r : registry) : snapshot =
  let counters = Hashtbl.fold (fun k c acc -> (k, !c) :: acc) r.counters [] in
  let counters =
    if r.dropped_spans > 0 then ("obs.spans_dropped", r.dropped_spans) :: counters else counters
  in
  let counters =
    if r.dropped_cps > 0 then ("obs.cp_dropped", r.dropped_cps) :: counters else counters
  in
  {
    snap_counters = List.sort by_name counters;
    snap_spans = List.rev r.spans;
  }

let snap_counter (s : snapshot) (name : string) : int =
  match List.assoc_opt name s.snap_counters with Some n -> n | None -> 0

(* -- JSON helpers ---------------------------------------------------- *)

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

let us (v : float) : string = Printf.sprintf "%.3f" v

(* -- Chrome trace_event export --------------------------------------- *)

(* One process per registry (pid = position + 1), named via an "M"
   metadata event; spans become "X" complete events on tid 0.  Spans
   with a trace identity carry it in their args, and spans whose parent
   context was adopted from the wire additionally get an "s"/"f" flow
   pair drawing an arrow from the causing span to them (Perfetto
   renders these as flow arrows).  [?ops_only] keeps only spans that
   belong to some trace — the [--trace-ops] view.  Load the result in
   Perfetto or chrome://tracing. *)
let chrome_trace ?(ops_only = false) (regs : (string * registry) list) : string =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  let emit s =
    if !first then first := false else Buffer.add_char buf ',';
    Buffer.add_string buf s
  in
  List.iteri
    (fun i (label, _) ->
      emit
        (Printf.sprintf
           "{\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"%s\"}}"
           (i + 1) (json_escape label)))
    regs;
  List.iteri
    (fun i (_, r) ->
      let pid = i + 1 in
      (* span id -> span, for anchoring flow arrows at the parent. *)
      let by_sid : (int, span) Hashtbl.t = Hashtbl.create 256 in
      List.iter (fun sp -> if sp.sp_span > 0 then Hashtbl.replace by_sid sp.sp_span sp) r.spans;
      List.iter
        (fun sp ->
          if (not ops_only) || sp.sp_trace > 0 then begin
            let ids =
              if sp.sp_trace > 0 then
                Printf.sprintf ",\"trace\":%d,\"span\":%d,\"parent\":%d" sp.sp_trace sp.sp_span
                  sp.sp_parent
              else ""
            in
            let args =
              match sp.sp_args with
              | [] -> Printf.sprintf "{\"depth\":%d%s}" sp.sp_depth ids
              | kvs ->
                  let fields =
                    List.map
                      (fun (k, v) -> Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v))
                      kvs
                  in
                  Printf.sprintf "{\"depth\":%d%s,%s}" sp.sp_depth ids (String.concat "," fields)
            in
            emit
              (Printf.sprintf
                 "{\"ph\":\"X\",\"pid\":%d,\"tid\":0,\"cat\":\"%s\",\"name\":\"%s\",\"ts\":%s,\"dur\":%s,\"args\":%s}"
                 pid (json_escape sp.sp_cat) (json_escape sp.sp_name) (us sp.sp_start_us)
                 (us sp.sp_dur_us) args);
            if sp.sp_remote && sp.sp_parent > 0 then
              match Hashtbl.find_opt by_sid sp.sp_parent with
              | None -> () (* parent dropped or still open: no arrow *)
              | Some parent ->
                  (* ids are unique per registry; offset by pid so a
                     multi-registry export never collides. *)
                  let flow_id = (pid * 100_000_000) + sp.sp_span in
                  emit
                    (Printf.sprintf
                       "{\"ph\":\"s\",\"pid\":%d,\"tid\":0,\"cat\":\"flow\",\"name\":\"rpc\",\"id\":%d,\"ts\":%s}"
                       pid flow_id (us parent.sp_start_us));
                  emit
                    (Printf.sprintf
                       "{\"ph\":\"f\",\"bp\":\"e\",\"pid\":%d,\"tid\":0,\"cat\":\"flow\",\"name\":\"rpc\",\"id\":%d,\"ts\":%s}"
                       pid flow_id (us sp.sp_start_us))
          end)
        (List.rev r.spans))
    regs;
  Buffer.add_string buf "],\"displayTimeUnit\":\"ms\"}";
  Buffer.contents buf

(* -- JSONL export ---------------------------------------------------- *)

let jsonl_into (buf : Buffer.t) (r : registry) : unit =
  let s = snapshot r in
  List.iter
    (fun (name, v) ->
      Buffer.add_string buf
        (Printf.sprintf "{\"type\":\"counter\",\"name\":\"%s\",\"value\":%d}\n" (json_escape name) v))
    s.snap_counters;
  List.iter
    (fun sp ->
      let ids =
        if sp.sp_trace > 0 then
          Printf.sprintf ",\"trace\":%d,\"span\":%d,\"parent\":%d%s" sp.sp_trace sp.sp_span
            sp.sp_parent
            (if sp.sp_remote then ",\"remote\":true" else "")
        else ""
      in
      Buffer.add_string buf
        (Printf.sprintf
           "{\"type\":\"span\",\"cat\":\"%s\",\"name\":\"%s\",\"ts\":%s,\"dur\":%s,\"depth\":%d%s}\n"
           (json_escape sp.sp_cat) (json_escape sp.sp_name) (us sp.sp_start_us) (us sp.sp_dur_us)
           sp.sp_depth ids))
    s.snap_spans;
  List.iter
    (fun cp ->
      let segs =
        List.map
          (fun (k, v) -> Printf.sprintf "\"%s\":%s" (json_escape k) (us v))
          cp.cp_segments
      in
      Buffer.add_string buf
        (Printf.sprintf
           "{\"type\":\"critical_path\",\"op\":\"%s\",\"trace\":%d,\"span\":%d,\"ts\":%s,\"wall\":%s,\"segments\":{%s}}\n"
           (json_escape cp.cp_op) cp.cp_trace cp.cp_span (us cp.cp_start_us) (us cp.cp_wall_us)
           (String.concat "," segs)))
    (cp_samples r)

let jsonl_of (regs : (string * registry) list) : string =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (label, r) ->
      Buffer.add_string buf
        (Printf.sprintf "{\"type\":\"registry\",\"label\":\"%s\"}\n" (json_escape label));
      jsonl_into buf r)
    regs;
  Buffer.contents buf
