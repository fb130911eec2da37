(* Binary min-heap event queue for the discrete-event engine.

   Keys are (timestamp, sequence) pairs: the sequence number breaks
   ties so that events scheduled for the same instant pop in FIFO
   order — a property the fleet simulator depends on (two clients
   submitting at the same microsecond must be served in submission
   order for byte-identical replay).  All operations are O(log n);
   the array doubles geometrically and never shrinks.  Slots past the
   live prefix hold a sentinel entry, never a finished event: a popped
   payload (for the engine, a closure over a client's state) must not
   stay reachable from the queue. *)

type 'a entry = { at : float; seq : int; v : 'a }

type 'a t = {
  mutable arr : 'a entry array;
  mutable len : int;
  mutable next_seq : int;
  free : 'a entry; (* the sentinel every unused slot holds *)
}

let create ~(dummy : 'a) : 'a t =
  { arr = [||]; len = 0; next_seq = 0; free = { at = infinity; seq = -1; v = dummy } }

let length (t : 'a t) : int = t.len
let is_empty (t : 'a t) : bool = t.len = 0

(* Strict heap order: earlier time wins; equal times fall back to
   insertion sequence. *)
let before (a : 'a entry) (b : 'a entry) : bool =
  a.at < b.at || (a.at = b.at && a.seq < b.seq)

let grow (t : 'a t) : unit =
  let cap = Array.length t.arr in
  let ncap = if cap = 0 then 16 else cap * 2 in
  let narr = Array.make ncap t.free in
  Array.blit t.arr 0 narr 0 t.len;
  t.arr <- narr

let rec sift_up (t : 'a t) (i : int) : unit =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before t.arr.(i) t.arr.(parent) then begin
      let tmp = t.arr.(i) in
      t.arr.(i) <- t.arr.(parent);
      t.arr.(parent) <- tmp;
      sift_up t parent
    end
  end

let rec sift_down (t : 'a t) (i : int) : unit =
  let l = (2 * i) + 1 in
  let r = l + 1 in
  let smallest = ref i in
  if l < t.len && before t.arr.(l) t.arr.(!smallest) then smallest := l;
  if r < t.len && before t.arr.(r) t.arr.(!smallest) then smallest := r;
  if !smallest <> i then begin
    let tmp = t.arr.(i) in
    t.arr.(i) <- t.arr.(!smallest);
    t.arr.(!smallest) <- tmp;
    sift_down t !smallest
  end

let push (t : 'a t) ~(at : float) (v : 'a) : unit =
  if Float.is_nan at then invalid_arg "Eventq.push: NaN timestamp";
  let e = { at; seq = t.next_seq; v } in
  t.next_seq <- t.next_seq + 1;
  if t.len = Array.length t.arr then grow t;
  t.arr.(t.len) <- e;
  t.len <- t.len + 1;
  sift_up t (t.len - 1)

let peek_at (t : 'a t) : float option = if t.len = 0 then None else Some t.arr.(0).at

let pop (t : 'a t) : (float * 'a) option =
  if t.len = 0 then None
  else begin
    let top = t.arr.(0) in
    t.len <- t.len - 1;
    t.arr.(0) <- t.arr.(t.len);
    (* Release the vacated slot to the sentinel, so the popped payload
       does not outlive its event (the heap can live as long as the
       simulation). *)
    t.arr.(t.len) <- t.free;
    if t.len > 0 then sift_down t 0;
    Some (top.at, top.v)
  end

(* Test hook: verify the heap invariant over the live prefix. *)
let check (t : 'a t) : bool =
  let ok = ref true in
  for i = 1 to t.len - 1 do
    let parent = (i - 1) / 2 in
    if before t.arr.(i) t.arr.(parent) then ok := false
  done;
  !ok
