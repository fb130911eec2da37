(** XDR marshaling (RFC 1832 subset).  Every SFS protocol message —
    including everything hashed, signed or encrypted — is XDR-encoded
    first (paper section 3.2). *)

exception Error of string

val error : ('a, unit, string, 'b) format4 -> 'a
(** [error fmt ...] raises {!Error} with a formatted message. *)

(** {2 Encoding} *)

type enc

val make_enc : unit -> enc
val to_string : enc -> string

val buffer : enc -> Bytes.t
(** The encoder's own buffer, not a copy: its first [length e] bytes
    are the message.  Valid until the next write or {!reset}; read it,
    never write it. *)

val length : enc -> int

val reset : enc -> unit
(** Empties the encoder, keeping its buffer — one encoder can serve a
    whole connection without per-call allocation. *)

val enc_raw : enc -> string -> unit
(** Appends pre-marshaled bytes verbatim. *)

val enc_uint32 : enc -> int -> unit
val enc_uint64 : enc -> int64 -> unit
val enc_bool : enc -> bool -> unit

val enc_fixed_opaque : enc -> size:int -> string -> unit
(** Fixed-width opaque data, zero-padded to 4 bytes. *)

val enc_opaque : enc -> string -> unit
(** Length-prefixed opaque data. *)

val enc_opaque_slice : enc -> Sfs_util.Slice.t -> unit
(** {!enc_opaque} of a view: the bytes of
    [enc_opaque e (Slice.to_string s)] without the copy. *)

val enc_nested : enc -> (enc -> 'a) -> 'a
(** [enc_nested e f] writes a length-prefixed opaque whose body [f]
    marshals in place, backpatching the length and padding afterwards,
    and returns [f]'s result.  The bytes are those of
    [enc_opaque e (encode g v)] when [f] is [fun e -> g e v], without
    the intermediate encoder and string. *)

val enc_string : enc -> string -> unit
val enc_option : enc -> (enc -> 'a -> unit) -> 'a option -> unit
val enc_array : enc -> (enc -> 'a -> unit) -> 'a list -> unit

val encode : (enc -> 'a -> unit) -> 'a -> string
(** One-shot serialization. *)

(** {2 Decoding}

    Decoders raise {!Error} on malformed input; {!run} catches it. *)

type dec

val dec_uint32 : dec -> int
val dec_uint64 : dec -> int64
val dec_bool : dec -> bool
val dec_fixed_opaque : dec -> size:int -> string

val dec_opaque : ?max:int -> dec -> string
(** Bounded (default 1 MiB): attacker-supplied lengths cannot force
    large allocations. *)

val dec_opaque_slice : ?max:int -> dec -> Sfs_util.Slice.t
(** Like {!dec_opaque}, but returns a view of the payload in place —
    no copy; the slice retains the whole input string. *)

val dec_string : ?max:int -> dec -> string
val dec_option : dec -> (dec -> 'a) -> 'a option
val dec_array : ?max:int -> dec -> (dec -> 'a) -> 'a list

val dec_rest_slice : dec -> Sfs_util.Slice.t
(** Consumes all remaining bytes, as a view in place — no copy. *)

val run : string -> (dec -> 'a) -> ('a, string) result
(** Complete-message decode: trailing bytes are an error. *)

val run_slice : Sfs_util.Slice.t -> (dec -> 'a) -> ('a, string) result
(** {!run} over a view: the message decodes inside its backing frame. *)
