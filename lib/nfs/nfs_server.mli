(** The NFS 3 server engine: serves any [Fs_intf.ops] backend over Sun
    RPC.  Deliberately faithful to NFS 3's weaknesses — AUTH_UNIX
    credentials are taken at face value and file handles are guessable
    (paper section 3.3); SFS closes both holes in its own server. *)

type t

val create : ?fh_prefix:string -> ?obs:Sfs_obs.Obs.registry -> Fs_intf.ops -> t
(** When [obs] is given, every dispatched procedure records a span plus
    [nfs.calls] and [nfs.op.<name>] counters. *)

val root_fh : t -> Nfs_types.fh

val dispatch_into : t -> Sfs_os.Simos.cred -> int -> string -> Sfs_xdr.Xdr.enc -> bool
(** [dispatch_into t cred proc args e] runs one procedure on marshaled
    arguments and marshals its results onto [e] in place; [false], with
    nothing written, means unparsable args or unknown procedure.  The
    entry point the SFS server uses (with its own credential mapping
    and handle translation around it), writing straight into its reply
    encoder. *)

val dispatch : t -> Sfs_os.Simos.cred -> int -> string -> string option
(** {!dispatch_into} on a reusable encoder, copied out once; [None] for
    [false]. *)

val handle_message : t -> string -> string
(** One marshaled Sun RPC call (NFS or MOUNT program) to one marshaled
    reply; never raises on garbage input. *)

val service : t -> Sfs_net.Simnet.service
(** Expose on a network port (2049 by convention). *)

val calls : t -> int
(** Total RPCs handled, for cache-behaviour assertions. *)
