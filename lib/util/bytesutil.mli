(** Small byte-string helpers shared across SFS libraries. *)

val xor : string -> string -> string
(** [xor a b] is the byte-wise xor of the common prefix of [a] and [b]. *)

val ct_equal : string -> string -> bool
(** Constant-time equality, for MAC and digest comparison. *)

val ct_equal_sub : Bytes.t -> Bytes.t -> off:int -> len:int -> bool
(** [ct_equal_sub a b ~off ~len] compares the first [len] bytes of [a]
    in constant time against the [len] bytes of [b] at [off], without
    copying — a tag computed into scratch against the tag stored in a
    frame.  False when either range falls outside its buffer. *)

val put_be32 : Bytes.t -> off:int -> int -> unit
(** Writes the low 32 bits big-endian at [off]. *)

val get_be32 : Bytes.t -> off:int -> int
(** Reads a big-endian 32-bit unsigned value at [off]. *)

val put_be64 : Bytes.t -> off:int -> int64 -> unit

val be32_of_int : int -> string
(** Big-endian 4-byte encoding of the low 32 bits of an int. *)

val int_of_be32 : string -> off:int -> int
(** Reads a big-endian 32-bit unsigned value at [off]. *)

val int64_of_be64 : string -> off:int -> int64

val chunks : size:int -> string -> string list
(** [chunks ~size s] splits [s] into pieces of at most [size] bytes; a
    string of at most [size] bytes is its own one piece, not a copy. *)
