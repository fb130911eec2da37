(** Blowfish block cipher, used by SFS to protect NFS file handles
    (CBC with a 20-byte key, paper section 3.3) and as the core of
    eksblowfish password hashing. *)

type t

val create : string -> t
(** [create key] runs the standard key schedule; [key] must be 1..56
    bytes (SFS uses 20). *)

(* sfslint: allow SL014 — the single-block form the Blowfish known-answer vectors use *)
val encrypt_block : t -> string -> string
(* sfslint: allow SL014 — the single-block form the Blowfish known-answer vectors use *)
val decrypt_block : t -> string -> string
(** Single 8-byte blocks. @raise Invalid_argument on other lengths. *)

val encrypt_cbc_into : t -> iv:string -> Bytes.t -> off:int -> len:int -> unit
val decrypt_cbc_into : t -> iv:string -> Bytes.t -> off:int -> len:int -> unit
(** CBC in place over the [len] bytes at [off] (a whole number of
    blocks) with an 8-byte IV, with no allocation.
    @raise Invalid_argument on a bad IV, range or alignment. *)

(**/**)

(* Internal surface for Eksblowfish. *)

type state = t

val raw_initial : unit -> state
val raw_expand_key : state -> salt:string -> key:string -> unit
val raw_encrypt_words : state -> int -> int -> int * int
val zero_salt : string
