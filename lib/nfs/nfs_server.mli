(** The NFS 3 server engine: serves any [Fs_intf.ops] backend over Sun
    RPC.  Deliberately faithful to NFS 3's weaknesses — AUTH_UNIX
    credentials are taken at face value and file handles are guessable
    (paper section 3.3); SFS closes both holes in its own server. *)

type t

val create : ?fh_prefix:string -> ?obs:Sfs_obs.Obs.registry -> Fs_intf.ops -> t
(** When [obs] is given, every dispatched procedure records a span plus
    [nfs.calls] and [nfs.op.<name>] counters. *)

type outcome =
  | Done
  | Bad_args  (** the arguments do not parse *)
  | No_proc  (** no such procedure *)

val dispatch_into : t -> Sfs_os.Simos.cred -> int -> string -> Sfs_xdr.Xdr.enc -> outcome
(** [dispatch_into t cred proc args e] runs one procedure on marshaled
    arguments and marshals its results onto [e] in place, after a Sun
    RPC reply header here, inside an Fs_reply in the SFS server.
    Nothing is written unless it is [Done]. *)

val service : t -> Sfs_net.Simnet.service
(** Expose on a network port (2049 by convention), with a
    per-connection {!Drc} of 128 entries keyed by xid ([nfs.drc_*]). *)

val calls : t -> int
(** Total RPCs handled, for cache-behaviour assertions. *)
