(** The SFS user-authentication protocol (paper section 3.1.2,
    Figure 4): agents sign (AuthID, SeqNo) pairs; authserv maps the
    signing key to credentials; the file server checks session binding
    and replay freshness, then assigns an authentication number. *)

module Rabin = Sfs_crypto.Rabin

type authinfo = {
  service : string; (** "FS" *)
  location : string;
  hostid : string;
  session_id : string;
}
(** Names exactly one session of exactly one file system, so signed
    requests cannot be transplanted. *)

val authid_of : authinfo -> string
(** AuthID = SHA-1 of the marshaled AuthInfo. *)

type authmsg = { user_pub : Rabin.pub; signature : Rabin.signature }

val make_authmsg : key:Rabin.priv -> authinfo -> seqno:int -> authmsg
(** Agent side; the agent keeps the audit trail of every private-key
    operation (section 2.5.1). *)

val validate_authmsg : authmsg -> authid:string -> seqno:int -> bool
(** Authserver side: does the signature cover this (AuthID, SeqNo)? *)

val authmsg_to_string : authmsg -> string
val authmsg_of_string : string -> authmsg option

(** {2 The server's replay window}

    "The server accepts out-of-order sequence numbers within a
    reasonable window" (paper footnote 4); each number is accepted at
    most once. *)

type seq_window

val make_window : unit -> seq_window
val window_accept : seq_window -> int -> bool
