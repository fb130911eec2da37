(** SFS base-32 encoding of HostIDs (paper section 2.2).

    The alphabet uses 32 digits and lower-case letters, omitting the
    confusable characters ["l"], ["1"], ["0"] and ["o"].  A 20-byte SHA-1
    HostID encodes to exactly 32 characters. *)

(* sfslint: allow SL014 — §2.2: the HostID alphabet, which leaves out l, 1, 0 and o *)
val alphabet : string
(** The 32-character alphabet, in value order. *)

val encode : string -> string
(** [encode s] renders the bytes of [s] MSB-first in base 32. *)

val decode : string -> string
(** [decode e] inverts {!encode}.
    @raise Invalid_argument on characters outside the alphabet or on
    nonzero padding bits. *)
