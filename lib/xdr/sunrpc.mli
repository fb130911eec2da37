(** Sun RPC (RFC 1831) message framing: the call/reply envelope with
    AUTH_NONE / AUTH_UNIX credentials and the TCP record-marking
    standard, enough to carry the NFS 3 and SFS programs faithfully
    (paper section 3.2). *)

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
  | Success of string  (** marshaled results *)
  | Prog_unavail
  | Prog_mismatch of int * int
  | Proc_unavail
  | Garbage_args
  | System_err
  | Rejected of reject_reason

type reply = { reply_xid : int; body : reply_body }

type msg = Call of call | Reply of reply

val msg_to_string : ?enc:Xdr.enc -> msg -> string
(** [?enc] reuses the given encoder (it is reset first) instead of
    allocating one per call. *)

val msg_of_string : string -> (msg, string) result
(** Total: malformed envelopes yield [Error], never an exception. *)

(** {2 TCP record marking} *)

val record_to_string : string -> string

type reader
(** Incremental record reassembly for the stream transports. *)

val make_reader : unit -> reader
val reader_feed : reader -> string -> unit
val reader_next : reader -> string option
