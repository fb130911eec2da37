(* Log-linear quantile sketch (HDR-histogram style).

   Fixed bucket layout, integer observations: values below [linear_max]
   get one bucket each (exact); larger values fall into log-linear
   buckets — each power-of-two octave is split into [subbuckets] equal
   sub-ranges, bounding the relative quantile error by
   1/subbuckets = 1/16.  The layout is a pure function of the value, so
   a sketch is independent of observation order — the property the
   fleet-scale aggregation path needs.

   Quantile estimates return the *upper edge* of the bucket holding the
   requested rank, so estimates never undershoot the true order
   statistic and overshoot it by at most [v/16 + 1]. *)

let subbuckets = 16
let linear_max = 2 * subbuckets (* values < 32 are exact *)

(* Largest value we distinguish: 2^62-ish is unreachable for simulated
   microseconds; 60 octaves above the linear range is plenty. *)
let octaves = 56
let nbuckets = linear_max + (octaves * subbuckets)

type t = { mutable count : int; mutable sum : int; buckets : int array }

let create () : t = { count = 0; sum = 0; buckets = Array.make nbuckets 0 }

(* Index of the most significant bit of [v] (v > 0): 2^m <= v < 2^(m+1). *)
let msb (v : int) : int =
  let m = ref 0 and v = ref v in
  while !v > 1 do
    incr m;
    v := !v lsr 1
  done;
  !m

let bucket_of (v : int) : int =
  if v <= 0 then 0
  else if v < linear_max then v
  else begin
    let m = msb v in
    (* m >= 5 here.  The top [subbuckets] sub-ranges of octave m are
       indexed by bits m-1..m-4 of v, i.e. (v lsr (m-4)) in [16,31]. *)
    let b = ((m - 4) * subbuckets) + (v lsr (m - 4)) in
    if b >= nbuckets then nbuckets - 1 else b
  end

(* Upper edge (inclusive) of bucket [b]: the largest value mapping there. *)
let bucket_upper (b : int) : int =
  if b < linear_max then b
  else begin
    let g = (b - subbuckets) / subbuckets in
    let m = g + 4 in
    let s = b - ((m - 4) * subbuckets) in
    ((s + 1) lsl (m - 4)) - 1
  end

let observe (t : t) (v : int) : unit =
  t.count <- t.count + 1;
  t.sum <- t.sum + v;
  let b = bucket_of v in
  t.buckets.(b) <- t.buckets.(b) + 1

(* [quantile t q]: upper edge of the bucket containing the ceil(q*count)-th
   smallest observation (1-based).  0 on an empty sketch. *)
let quantile (t : t) (q : float) : int =
  if t.count = 0 then 0
  else begin
    let r = int_of_float (ceil (q *. float_of_int t.count)) in
    let r = if r < 1 then 1 else if r > t.count then t.count else r in
    let cum = ref 0 and b = ref 0 and found = ref (nbuckets - 1) in
    (let continue = ref true in
     while !continue && !b < nbuckets do
       cum := !cum + t.buckets.(!b);
       if !cum >= r then begin
         found := !b;
         continue := false
       end;
       incr b
     done);
    bucket_upper !found
  end

(* Sparse, ascending, deterministic: printing is independent of
   observation order. *)
let to_json (t : t) : string =
  let bs = ref [] in
  for i = nbuckets - 1 downto 0 do
    if t.buckets.(i) > 0 then bs := Printf.sprintf "[%d,%d]" i t.buckets.(i) :: !bs
  done;
  Printf.sprintf "{\"count\":%d,\"sum\":%d,\"buckets\":[%s]}" t.count t.sum
    (String.concat "," !bs)
