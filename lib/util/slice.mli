(** A read-only view (base string, offset, length) — the currency of
    the read path's decoders.  {!Channel.open_with} lends the plaintext
    of each message as a view into the channel's reused frame buffer,
    valid only while its callback runs; XDR decoding works on views in
    place, and whatever outlives the callback is copied out of the view
    ({!to_string}) or decoded into values of its own.

    A view into a string that nobody rewrites (a reply an exchange
    returned, a stored frame) may outlive the call that made it: a
    verified read-only directory ([Readonly_proto.dir]) is such a
    view, kept for as long as the client's verification cache holds
    it.  A view lent by [Channel.open_with] never may.

    A slice retains its whole backing string; slice small fields out of
    large transient buffers with {!to_string} instead. *)

type t = private { base : string; off : int; len : int }

(* sfslint: allow SL014 — the whole-string view the codec, channel and read-only tests build their views from *)
val of_string : string -> t
(** Whole-string view; allocation-free, and {!to_string} of it returns
    the original string, also allocation-free. *)

val make : string -> off:int -> len:int -> t
(** @raise Invalid_argument when the range exceeds the base. *)

val length : t -> int
[@@sfs.declassify "a view's length, like String.length of its bytes, is a size and never content"]

val base : t -> string

val offset : t -> int
[@@sfs.declassify "a position inside the backing string, never its content"]

val to_string : t -> string
(** A copy of the viewed bytes, which outlives a lent view; whole-base
    views return the base unchanged. *)

val blit : t -> src_off:int -> Bytes.t -> dst_off:int -> len:int -> unit
(** Copy a sub-range into [dst] at [dst_off].  @raise Invalid_argument
    when either range is out of bounds. *)
