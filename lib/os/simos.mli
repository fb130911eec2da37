(** A miniature multi-user Unix: users and credentials.

    SFS's design hangs off this separation — servers grant access to
    users, not clients (paper section 2.1.1), and agents are per-user
    processes (section 2.3). *)

type user = { name : string; uid : int; gid : int; groups : int list }
type cred = { cred_uid : int; cred_gid : int; cred_groups : int list }

val cred_of_user : user -> cred

val root_user : user

val anonymous_cred : cred
(** The credential SFS assigns to unauthenticated access (uid -2). *)

val is_superuser : cred -> bool
val is_anonymous : cred -> bool
val in_group : cred -> int -> bool

type t

val create : unit -> t

val add_user : t -> string -> user
(** A new user with the next free uid (from 1000) and a personal group
    of the same number.
    @raise Invalid_argument on duplicate names. *)

val find_user : t -> string -> user option
val find_user_by_uid : t -> int -> user option
