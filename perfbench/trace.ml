(* The traced run's span recorder.  Spans are taken at the benchmark's
   own wrap points: each benchmark call, the Simnet tap bracket around
   one server exchange, each backend Fs_intf call, each authserv
   validation, mount and authenticate, each set-up and crowd batch.
   They are kept in preallocated arrays and written out at the end as
   Chrome trace_event JSON, which Perfetto loads.  Every time here is
   real (monotonic wall clock), never simulated.

   Beside the spans the recorder keeps per-layer totals of time,
   allocation and count, and the two nestings the per-layer metrics
   need: server exchanges inside benchmark calls (the rest of a call
   is the client side) and backend calls inside server exchanges (the
   rest of an exchange is the server's own time). *)

type layer = Call | Rpc | Be_read | Be_write | Be_meta | Validate | Mount | Auth | Setup | Batch

let n_layers = 10

let index = function
  | Call -> 0
  | Rpc -> 1
  | Be_read -> 2
  | Be_write -> 3
  | Be_meta -> 4
  | Validate -> 5
  | Mount -> 6
  | Auth -> 7
  | Setup -> 8
  | Batch -> 9

let name = function
  | Call -> "bench.call"
  | Rpc -> "server.rpc"
  | Be_read -> "memfs_ops.read"
  | Be_write -> "memfs_ops.write"
  | Be_meta -> "memfs_ops.meta"
  | Validate -> "authserv.validate"
  | Mount -> "client.mount"
  | Auth -> "client.authenticate"
  | Setup -> "bench.setup"
  | Batch -> "bench.batch"

let is_backend l = l = Be_read || l = Be_write || l = Be_meta
let max_depth = 32

type t = {
  cap : int;
  mutable n : int;
  mutable dropped : int;
  s_layer : layer array;
  s_parent : int array;
  s_t0 : float array;
  s_t1 : float array;
  (* the stack of open spans *)
  mutable depth : int;
  f_layer : layer array;
  f_id : int array;
  f_reads : int array;
  f_t0 : float array;
  f_a0 : float array;
  f_child_ns : float array;
  f_child_alloc : float array;
  f_children : int array;
  mutable reads : int; (* allocation readings taken so far *)
  ns : float array;
  alloc : float array;
  count : int array;
  nested : float array;
      (* 0, 1: server time and allocation inside benchmark calls;
         2, 3: backend time and allocation inside server exchanges *)
  mutable rpc_free : Meter.Samples.t; (* ns of benchmark calls that made no server exchange *)
  base_ns : float;
}

let create ?(cap = 100_000) () : t =
  {
    cap;
    n = 0;
    dropped = 0;
    s_layer = Array.make cap Call;
    s_parent = Array.make cap (-1);
    s_t0 = Array.make cap 0.0;
    s_t1 = Array.make cap 0.0;
    depth = 0;
    f_layer = Array.make max_depth Call;
    f_id = Array.make max_depth (-1);
    f_reads = Array.make max_depth 0;
    f_t0 = Array.make max_depth 0.0;
    f_a0 = Array.make max_depth 0.0;
    f_child_ns = Array.make max_depth 0.0;
    f_child_alloc = Array.make max_depth 0.0;
    f_children = Array.make max_depth 0;
    reads = 0;
    ns = Array.make n_layers 0.0;
    alloc = Array.make n_layers 0.0;
    count = Array.make n_layers 0;
    nested = Array.make 4 0.0;
    rpc_free = Meter.Samples.create ();
    base_ns = Meter.mono_ns ();
  }

let enter (t : t) (l : layer) : unit =
  let d = t.depth in
  if d >= max_depth then failwith "Trace.enter: spans nested too deep";
  let id =
    if t.n < t.cap then begin
      let id = t.n in
      t.n <- id + 1;
      t.s_layer.(id) <- l;
      t.s_parent.(id) <- (if d > 0 then t.f_id.(d - 1) else -1);
      id
    end
    else begin
      t.dropped <- t.dropped + 1;
      -1
    end
  in
  t.f_layer.(d) <- l;
  t.f_id.(d) <- id;
  t.f_child_ns.(d) <- 0.0;
  t.f_child_alloc.(d) <- 0.0;
  t.f_children.(d) <- 0;
  t.depth <- d + 1;
  t.f_reads.(d) <- t.reads;
  t.reads <- t.reads + 1;
  t.f_a0.(d) <- Meter.allocated ();
  t.f_t0.(d) <- Meter.mono_ns ()

let leave (t : t) (l : layer) : unit =
  let t1 = Meter.mono_ns () in
  let a1 = Meter.allocated () in
  t.reads <- t.reads + 1;
  let d = t.depth - 1 in
  if d < 0 || t.f_layer.(d) <> l then failwith ("Trace.leave: unbalanced " ^ name l);
  t.depth <- d;
  let dur = t1 -. t.f_t0.(d) in
  let inner = t.reads - t.f_reads.(d) - 2 in
  let alloc = a1 -. t.f_a0.(d) -. (float_of_int (inner + 1) *. Meter.reading_cost) in
  let li = index l in
  t.ns.(li) <- t.ns.(li) +. dur;
  t.alloc.(li) <- t.alloc.(li) +. alloc;
  t.count.(li) <- t.count.(li) + 1;
  let id = t.f_id.(d) in
  if id >= 0 then begin
    t.s_t0.(id) <- t.f_t0.(d);
    t.s_t1.(id) <- t1
  end;
  (match l with
  | Call ->
      t.nested.(0) <- t.nested.(0) +. t.f_child_ns.(d);
      t.nested.(1) <- t.nested.(1) +. t.f_child_alloc.(d);
      if t.f_children.(d) = 0 then Meter.Samples.add t.rpc_free dur
  | Rpc ->
      t.nested.(2) <- t.nested.(2) +. t.f_child_ns.(d);
      t.nested.(3) <- t.nested.(3) +. t.f_child_alloc.(d)
  | _ -> ());
  if d > 0 then begin
    let p = t.f_layer.(d - 1) in
    if (p = Call && l = Rpc) || (p = Rpc && is_backend l) then begin
      t.f_child_ns.(d - 1) <- t.f_child_ns.(d - 1) +. dur;
      t.f_child_alloc.(d - 1) <- t.f_child_alloc.(d - 1) +. alloc;
      t.f_children.(d - 1) <- t.f_children.(d - 1) + 1
    end
  end

let within (t : t) (l : layer) (f : unit -> 'a) : 'a =
  enter t l;
  match f () with
  | v ->
      leave t l;
      v
  | exception e ->
      leave t l;
      raise e

(* [f] alone on an untraced run. *)
let opt (tr : t option) (l : layer) (f : unit -> 'a) : 'a =
  match tr with None -> f () | Some t -> within t l f

(* Start the totals afresh (the timed phase begins); spans are kept. *)
let reset (t : t) : unit =
  Array.fill t.ns 0 n_layers 0.0;
  Array.fill t.alloc 0 n_layers 0.0;
  Array.fill t.count 0 n_layers 0;
  Array.fill t.nested 0 4 0.0;
  t.rpc_free <- Meter.Samples.create ()

type totals = {
  t_ns : float array;
  t_alloc : float array;
  t_count : int array;
  t_nested : float array;
  t_rpc_free : float array;
}

let totals (t : t) : totals =
  {
    t_ns = Array.copy t.ns;
    t_alloc = Array.copy t.alloc;
    t_count = Array.copy t.count;
    t_nested = Array.copy t.nested;
    t_rpc_free = Meter.Samples.to_array t.rpc_free;
  }

let ns (tot : totals) (l : layer) : float = tot.t_ns.(index l)
let alloc_of (tot : totals) (l : layer) : float = tot.t_alloc.(index l)
let count (tot : totals) (l : layer) : float = float_of_int tot.t_count.(index l)

(* Mean µs per span of this layer. *)
let us_per (tot : totals) (l : layer) : float = Meter.ratio (ns tot l) (count tot l) /. 1000.0

let spans (t : t) : int = t.n + t.dropped

let write_chrome (t : t) ~(path : string) ~(label : string) : unit =
  let oc = open_out path in
  Printf.fprintf oc
    "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"clock\":\"real time, monotonic wall \
     clock\",\"label\":\"%s\",\"spans_kept\":%d,\"spans_dropped\":%d},\"traceEvents\":[\n"
    label t.n t.dropped;
  Printf.fprintf oc
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"perfbench %s \
     (real time)\"}}"
    label;
  for i = 0 to t.n - 1 do
    let t0 = t.s_t0.(i) and t1 = t.s_t1.(i) in
    if t1 >= t0 && t0 > 0.0 then
      Printf.fprintf oc
        ",\n\
         {\"name\":\"%s\",\"cat\":\"layer\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}"
        (name t.s_layer.(i))
        ((t0 -. t.base_ns) /. 1000.0)
        ((t1 -. t0) /. 1000.0)
        i t.s_parent.(i)
  done;
  output_string oc "\n]}\n";
  close_out oc
