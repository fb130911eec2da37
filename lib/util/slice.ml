(* A read-only view into a string: the currency of the read path's
   decoders (DESIGN.md §14).  Channel.open_with lends each decrypted
   message as a view into the channel's reused frame buffer for the
   length of one callback; XDR decoding reads views in place, and
   whatever the callback keeps is copied out ([to_string]) or decoded
   into values of its own.

   Slices never own their base: holding a slice retains the whole
   backing string, so callers slicing small fields out of large
   transient buffers should [to_string] instead. *)

type t = { base : string; off : int; len : int }

let of_string (s : string) : t = { base = s; off = 0; len = String.length s }

let make (base : string) ~(off : int) ~(len : int) : t =
  if off < 0 || len < 0 || off + len > String.length base then
    invalid_arg
      (Printf.sprintf "Slice.make: [%d,%d) outside base of length %d" off (off + len)
         (String.length base));
  { base; off; len }

let length (t : t) : int = t.len
let base (t : t) : string = t.base
let offset (t : t) : int = t.off

(* The one place a slice becomes a fresh string again.  Whole-base
   slices return the base itself: wrapping an existing string with
   [of_string] and reading it back costs nothing. *)
let to_string (t : t) : string =
  if t.off = 0 && t.len = String.length t.base then t.base else String.sub t.base t.off t.len

let blit (t : t) ~(src_off : int) (dst : Bytes.t) ~(dst_off : int) ~(len : int) : unit =
  if src_off < 0 || len < 0 || src_off + len > t.len then invalid_arg "Slice.blit: range outside slice";
  Bytes.blit_string t.base (t.off + src_off) dst dst_off len
