(** Sun RPC (RFC 1831) message framing: the call/reply envelope with
    AUTH_NONE / AUTH_UNIX credentials, enough to carry the NFS 3 and
    SFS programs faithfully (paper section 3.2). *)

type auth_flavor =
  | Auth_none
  | Auth_unix of { stamp : int; machine : string; uid : int; gid : int; gids : int list }

type call = {
  xid : int;
  prog : int;
  vers : int;
  proc : int;
  trace : int;  (** causal-trace context (simulation annex); 0 = none *)
  span : int;
  cred : auth_flavor;
  args : string;  (** pre-marshaled procedure arguments *)
}

type reject_reason = Rpc_mismatch of int * int | Auth_error of int

type reply_body =
  | Success of Sfs_util.Slice.t
      (** marshaled results; a decoded reply's are a view into the message *)
  | Prog_unavail
  | Prog_mismatch of int * int
  | Proc_unavail
  | Garbage_args
  | System_err
  | Rejected of reject_reason

type reply = { reply_xid : int; body : reply_body }

type msg = Call of call | Reply of reply

val enc_call_header :
  Xdr.enc -> xid:int -> prog:int -> vers:int -> proc:int -> trace:int -> span:int -> auth_flavor -> unit
(** A call's envelope; the caller marshals the arguments next. *)

val enc_success : Xdr.enc -> xid:int -> unit
(** A SUCCESS reply's envelope; the caller marshals the results next. *)

val enc_reply : Xdr.enc -> xid:int -> reply_body -> unit
(** A whole reply; its accepted-reply header is {!enc_success}'s. *)

(* sfslint: allow SL014 — the encoder the envelope round-trip laws and the raw NFS service tests drive *)
val msg_to_string : msg -> string

val msg_of_string : string -> (msg, string) result
(** Total: malformed envelopes yield [Error], never an exception. *)
