(** An immutable view (base string, offset, length) — the currency of
    the zero-copy read path.  {!Channel.open_slice} allocates one
    detached frame per message; XDR decoding, the RPC demux and the
    block cache pass views into it and bytes are copied again only at
    the final user-visible boundary.

    A slice retains its whole backing string; slice small fields out of
    large transient buffers with {!to_string} instead. *)

type t = private { base : string; off : int; len : int }

val of_string : string -> t
(** Whole-string view; allocation-free, and {!to_string} of it returns
    the original string, also allocation-free. *)

val make : string -> off:int -> len:int -> t
(** @raise Invalid_argument when the range exceeds the base. *)

val length : t -> int
val is_empty : t -> bool

val base : t -> string
val offset : t -> int

val to_string : t -> string
(** The only copy point; whole-base views return the base unchanged. *)

val blit : t -> src_off:int -> Bytes.t -> dst_off:int -> len:int -> unit
(** Copy a sub-range into [dst] at [dst_off] (the read path's final
    copy-out).  @raise Invalid_argument when either range is out of
    bounds. *)
