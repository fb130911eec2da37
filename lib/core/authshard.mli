(** Sharded authserv: a consistent-hash ring (virtual nodes on SHA-1)
    over N {!Authserv} instances.  File servers plug in the ring's
    {!backend} and every signed authentication request routes to the
    shard owning the requesting public key; adding a shard moves only
    ~1/N of the users.  The mass-user authentication tier for the
    fleet simulator. *)

type t

val create : ?obs:Sfs_obs.Obs.registry -> Authserv.t array -> t
(** Each shard holds 32 virtual points on the ring.  When [obs] is
    given, each routed validation bumps [authshard.<i>.validate].
    @raise Invalid_argument on an empty shard array. *)

val add_user_key : t -> user:string -> cred:Sfs_os.Simos.cred -> Sfs_crypto.Rabin.pub -> int
(** Register [user] with [cred] and their public key on the owning
    shard; returns the shard index.
    @raise Invalid_argument if the shard rejects the registration. *)

val backend : t -> Authserv.backend
(** Routes [b_validate] by the authmsg's public key and
    [b_log_failure] by user name. *)
