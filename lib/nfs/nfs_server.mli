(** The NFS 3 server engine: serves any [Fs_intf.ops] backend over Sun
    RPC.  Deliberately faithful to NFS 3's weaknesses — AUTH_UNIX
    credentials are taken at face value and file handles are guessable
    (paper section 3.3); SFS closes both holes in its own server. *)

type t

(** How wire handles map to backend handles, and what a reply owes
    them.  The hooks see wire handles and run only after the backend
    call succeeds: [changed] on each handle a mutation touched (RENAME
    from-directory first, LINK directory before target), then [attr]
    on the attributes served for a handle. *)
type handles = {
  export : Nfs_types.fh -> Nfs_types.fh;
  import : Nfs_types.fh -> Nfs_types.fh option;  (** [None] is NFS3ERR_BADHANDLE *)
  attr : Nfs_types.fh -> Nfs_types.fattr -> Nfs_types.fattr;
  grant : Nfs_types.fh -> unit;  (** the directory of a READDIRPLUS *)
  changed : Nfs_types.fh -> unit;
}

val create : ?handles:handles -> ?obs:Sfs_obs.Obs.registry -> Fs_intf.ops -> t
(** [handles] defaults to NFS 3's: the backend handle behind a
    guessable ["nfs3:"] prefix, attributes as the backend gives them,
    no leases.  When [obs] is given, every dispatched procedure records
    a span plus [nfs.calls] and [nfs.op.<name>] counters. *)

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
