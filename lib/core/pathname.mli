(** Self-certifying pathnames (paper section 2.2, Figure 1):

    [/sfs/Location:HostID/path/on/remote/server]

    A pathname is all the information needed to communicate securely
    with its server; parsing one is SFS's entire key-distribution
    interface. *)

type t
(** A (Location, HostID) pair. *)

val v : location:string -> hostid:string -> t
(** @raise Invalid_argument unless the HostID is 20 raw bytes and the
    location is nonempty without ['/'] or [':']. *)

val of_server : location:string -> pubkey:Sfs_crypto.Rabin.pub -> t
(** The pathname a server with this key serves at this location. *)

val location : t -> string
val hostid : t -> string

val to_name : t -> string
(** The /sfs directory entry: ["Location:base32-HostID"]. *)

val to_string : t -> string
(** ["/sfs/Location:base32-HostID"]. *)

val of_name : string -> t option
val of_string : string -> (t * string list) option
(** Parses a full path, returning the remainder components. *)

val equal : t -> t -> bool
