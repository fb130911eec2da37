(* Real-time meters: monotonic wall clock, process CPU time and GC
   allocation, plus the small statistics the benchmark reports.  No
   simulated time ever passes through here. *)

external mono_ns : unit -> (float[@unboxed]) = "pb_mono_ns_byte" "pb_mono_ns" [@@noalloc]
external cpu_ns : unit -> (float[@unboxed]) = "pb_cpu_ns_byte" "pb_cpu_ns" [@@noalloc]

let word_bytes = float_of_int (Sys.word_size / 8)

(* Bytes allocated by this process so far, minor and major heaps
   together.  A reading allocates a little itself; [reading_cost] is
   that amount, so nested readings can be discounted. *)
let allocated () : float =
  let minor, promoted, major = Gc.counters () in
  (minor +. major -. promoted) *. word_bytes

let reading_cost : float =
  let a0 = allocated () in
  for _ = 1 to 1000 do
    ignore (Sys.opaque_identity (allocated ()))
  done;
  (allocated () -. a0) /. 1001.0

let ratio (a : float) (b : float) : float = if b = 0.0 then 0.0 else a /. b

let sorted (a : float array) : float array =
  let s = Array.copy a in
  Array.sort compare s;
  s

(* Nearest-rank quantile, [q] in [0, 1]. *)
let quantile (a : float array) (q : float) : float =
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let s = sorted a in
    let r = int_of_float (Float.ceil (q *. float_of_int n)) in
    s.(max 0 (min (n - 1) (r - 1)))

let median (a : float array) : float =
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let s = sorted a in
    if n land 1 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(* A growable float sample buffer; adding never allocates except when
   the buffer doubles. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () : t = { a = Array.make 4096 0.0; n = 0 }

  let add (t : t) (v : float) : unit =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let length (t : t) : int = t.n
  let to_array (t : t) : float array = Array.sub t.a 0 t.n

  (* The samples from index [i] on. *)
  let sub (t : t) (i : int) : float array = Array.sub t.a i (t.n - i)
end

(* Major-heap high-water mark of the process, in MB. *)
let peak_heap_mb () : float =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. word_bytes /. 1e6

(* Collections so far: (minor, major). *)
let collections () : int * int =
  let s = Gc.quick_stat () in
  (s.Gc.minor_collections, s.Gc.major_collections)
