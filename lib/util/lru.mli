(** A bounded-by-the-caller LRU map: a hash table plus an intrusive
    doubly-linked recency list, so every operation is O(1).

    The map never evicts on its own.  A cache decides its own capacity
    (entries, bytes) and pops {!pop_lru} until it fits.  Only {!find},
    {!replace} and {!promote} refresh recency; {!peek} and {!mem} do
    not, so a cache can decide whether a hit counts as a use. *)

type ('k, 'v) t

val create : int -> ('k, 'v) t
(** [create n]: an empty map; [n] is the initial table size hint. *)

val length : ('k, 'v) t -> int

val mem : ('k, 'v) t -> 'k -> bool
(** Membership; recency unchanged. *)

val peek : ('k, 'v) t -> 'k -> 'v option
(** Lookup; recency unchanged. *)

val find : ('k, 'v) t -> 'k -> 'v option
(** Lookup; a present key becomes the most recent. *)

(* sfslint: allow SL014 — the recency step that the LRU model property drives directly *)
val promote : ('k, 'v) t -> 'k -> unit
(** Make a present key the most recent; no-op when absent. *)

val replace : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert or overwrite; either way the key becomes the most recent. *)

val remove : ('k, 'v) t -> 'k -> unit
(** Drop a key; no-op when absent. *)

val pop_lru : ('k, 'v) t -> ('k * 'v) option
(** Remove and return the least recent entry; [None] when empty. *)

val clear : ('k, 'v) t -> unit

val fold : ('k -> 'v -> 'a -> 'a) -> ('k, 'v) t -> 'a -> 'a
(** Fold from the most recent entry to the least recent. *)
