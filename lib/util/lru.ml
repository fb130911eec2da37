(* A hash table plus an intrusive doubly-linked recency list: every
   operation is O(1).

   Each table entry is a cell of the list itself, so moving an entry to
   the front or unlinking it touches only its two neighbours.  The list
   is terminated by [Nil] at both ends ([head] = most recent, [tail] =
   least recent) rather than closed over a sentinel: a sentinel would
   need a dummy key and value of the caller's types.

   Recency is changed only by [find], [replace] and [promote]; [peek]
   and [mem] look without touching it, which is what lets a cache
   choose whether a hit counts as a use. *)

type ('k, 'v) cell =
  | Nil
  | Node of {
      key : 'k;
      mutable value : 'v;
      mutable prev : ('k, 'v) cell; (* toward most recent *)
      mutable next : ('k, 'v) cell; (* toward least recent *)
    }

type ('k, 'v) t = {
  tbl : ('k, ('k, 'v) cell) Hashtbl.t;
  mutable head : ('k, 'v) cell;
  mutable tail : ('k, 'v) cell;
}

let create (n : int) : ('k, 'v) t = { tbl = Hashtbl.create n; head = Nil; tail = Nil }
let length (t : ('k, 'v) t) : int = Hashtbl.length t.tbl
let mem (t : ('k, 'v) t) (k : 'k) : bool = Hashtbl.mem t.tbl k

let unlink (t : ('k, 'v) t) (c : ('k, 'v) cell) : unit =
  match c with
  | Nil -> ()
  | Node n ->
      (match n.prev with Nil -> t.head <- n.next | Node p -> p.next <- n.next);
      (match n.next with Nil -> t.tail <- n.prev | Node q -> q.prev <- n.prev);
      n.prev <- Nil;
      n.next <- Nil

let push_front (t : ('k, 'v) t) (c : ('k, 'v) cell) : unit =
  match c with
  | Nil -> ()
  | Node n ->
      n.next <- t.head;
      (match t.head with Nil -> t.tail <- c | Node h -> h.prev <- c);
      t.head <- c

let to_front (t : ('k, 'v) t) (c : ('k, 'v) cell) : unit =
  if t.head != c then begin
    unlink t c;
    push_front t c
  end

let peek (t : ('k, 'v) t) (k : 'k) : 'v option =
  match Hashtbl.find_opt t.tbl k with Some (Node n) -> Some n.value | _ -> None

let find (t : ('k, 'v) t) (k : 'k) : 'v option =
  match Hashtbl.find_opt t.tbl k with
  | Some (Node n as c) ->
      to_front t c;
      Some n.value
  | _ -> None

let promote (t : ('k, 'v) t) (k : 'k) : unit =
  match Hashtbl.find_opt t.tbl k with Some c -> to_front t c | None -> ()

let replace (t : ('k, 'v) t) (k : 'k) (v : 'v) : unit =
  match Hashtbl.find_opt t.tbl k with
  | Some (Node n as c) ->
      n.value <- v;
      to_front t c
  | _ ->
      let c = Node { key = k; value = v; prev = Nil; next = Nil } in
      Hashtbl.add t.tbl k c;
      push_front t c

let remove (t : ('k, 'v) t) (k : 'k) : unit =
  match Hashtbl.find_opt t.tbl k with
  | Some c ->
      unlink t c;
      Hashtbl.remove t.tbl k
  | None -> ()

let pop_lru (t : ('k, 'v) t) : ('k * 'v) option =
  match t.tail with
  | Nil -> None
  | Node n as c ->
      unlink t c;
      Hashtbl.remove t.tbl n.key;
      Some (n.key, n.value)

let clear (t : ('k, 'v) t) : unit =
  Hashtbl.reset t.tbl;
  t.head <- Nil;
  t.tail <- Nil

let fold (f : 'k -> 'v -> 'a -> 'a) (t : ('k, 'v) t) (init : 'a) : 'a =
  let rec go c acc = match c with Nil -> acc | Node n -> go n.next (f n.key n.value acc) in
  go t.head init
