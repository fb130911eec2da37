(** sfsagent — the per-user agent (paper sections 2.3, 2.5.1).

    Unprivileged, user-replaceable, and the seat of all per-user key
    management: it signs authentication requests (with an audit trail),
    owns the user's dynamic /sfs symlinks and name-resolution hooks
    (certification paths, PKI gateways), and tracks revocations and
    per-user HostID blocks. *)

module Simos = Sfs_os.Simos
module Rabin = Sfs_crypto.Rabin
module Authproto = Sfs_proto.Authproto

type audit_entry = { at_us : float; info : Authproto.authinfo; seqno : int }

type link_hook = string -> string option
(** Given a name accessed under /sfs, optionally answer with a symlink
    target; hooks run in order, first answer wins. *)

type t

val create : ?now_us:(unit -> float) -> ?obs:Sfs_obs.Obs.registry -> Simos.user -> t
(** [now_us] timestamps the audit trail.  When [obs] is given,
    signature spans and [agent.signatures] / [agent.revocation_checks]
    counters are recorded. *)

val user : t -> Simos.user

(** {2 Keys and signing} *)

val add_key : t -> Rabin.priv -> unit

(* sfslint: allow SL014 — §2.3: the keys the agent itself holds, which the split-key and proxy tests read *)
val keys : t -> Rabin.priv list
[@@sfs.secret]
(** Directly-held keys only (not split or proxied signers). *)

(* sfslint: allow SL014 — §2.5.1: an agent signing with a split private key *)
val add_split_key : t -> local:Keysplit.share -> fetch_rest:(unit -> Keysplit.share list) -> unit
(** A signer without direct key knowledge (section 2.5.1): the agent
    holds one share; the rest are fetched from key-holder services and
    the key is reconstructed only transiently inside signing. *)

(* sfslint: allow SL014 — §2.3: an agent signing through another agent (remote login) *)
val add_proxy : t -> name:string -> (Authproto.authinfo -> seqno:int -> Authproto.authmsg option) -> unit
(** Forward signing requests to another agent — the ssh-like remote
    login scenario the paper envisages. *)

(* sfslint: allow SL014 — §2.3: the remote end of an agent proxy chain *)
val forwarder : t -> Authproto.authinfo -> seqno:int -> Authproto.authmsg option
(** Expose this agent as the remote end of a proxy chain. *)

(* sfslint: allow SL014 — §2.3: the user drops every key from the agent *)
val forget_keys : t -> unit
(** Drop every signer. *)

val sign_requests : t -> Authproto.authinfo -> seqno_of:(int -> int) -> Authproto.authmsg list
(** One signed request per able signer, with consecutive sequence
    numbers; local signatures are recorded in the audit trail. *)

val audit_trail : t -> audit_entry list

(** {2 The user's view of /sfs} *)

val add_link : t -> name:string -> target:string -> unit
(** A symlink in /sfs visible only to this agent's user. *)

(* sfslint: allow SL014 — §2.3: removing one of the user's dynamic /sfs links *)
val remove_link : t -> string -> unit
val links : t -> (string * string) list
val add_hook : t -> name:string -> link_hook -> unit
(* sfslint: allow SL014 — §2.3: removing one of the agent's name-resolution hooks *)
val remove_hook : t -> string -> unit

val resolve_name : t -> string -> string option
(** The client's upcall for a non-self-certifying name under /sfs. *)

(** {2 Revocation and blocking (section 2.6)} *)

val learn_revocation : t -> Revocation.t -> bool
(** Retain a certificate (if valid); future accesses to its pathname
    fail before any network traffic. *)

val check_revoked : t -> Pathname.t -> Revocation.t option

val block_hostid : t -> string -> unit
(** Per-user blacklisting, no owner signature required. *)

val unblock_hostid : t -> string -> unit
val is_blocked : t -> string -> bool
