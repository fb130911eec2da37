(** Binary min-heap event queue: O(log n) push/pop, FIFO-stable for
    equal timestamps (ties break on insertion order).  The scheduling
    core of the discrete-event engine ({!Simclock.schedule}). *)

type 'a t

val create : dummy:'a -> 'a t
(** An empty queue.  Unused slots hold [dummy], never a popped
    payload, so what a finished event captured can be collected; pass
    a value that captures nothing. *)

val push : 'a t -> at:float -> 'a -> unit
(** Insert an event at timestamp [at].
    @raise Invalid_argument on a NaN timestamp. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the earliest event; among equal timestamps, the
    one pushed first. *)

(* sfslint: allow SL014 — the heap-invariant check the push/pop property runs after every step *)
val check : 'a t -> bool
(** Test hook: does the internal array satisfy the heap invariant? *)
