(** Server key management techniques (paper section 2.4), each a few
    lines over symbolic links, /sfs and the agent — none inside the
    file system, all freely composable. *)

module Simos = Sfs_os.Simos
module Memfs = Sfs_nfs.Memfs
module Rabin = Sfs_crypto.Rabin

val manual_link :
  Vfs.t -> Simos.cred -> link:string -> Pathname.t -> (unit, Vfs.verror) result
(** Manual key distribution: a local symlink to a self-certifying
    pathname.  With [link] inside another SFS file system it is a
    secure link: following it extends trust from one server to the
    next. *)

(* sfslint: allow SL014 — §2.4: the bookmark script *)
val bookmark :
  Vfs.t -> Simos.cred -> bookmarks_dir:string -> cwd:string -> (string, Vfs.verror) result
(** The 10-line bookmark script: creates Location -> current mount's
    self-certifying pathname; returns the link path. *)

val install_certification_path : Agent.t -> Vfs.t -> string list -> unit
(** Agent hook: map bare names under /sfs by searching each directory
    in order for a symlink (or a one-line file) of that name. *)

val build_ca_fs :
  now:(unit -> Sfs_nfs.Nfs_types.nfstime) -> (string * Pathname.t) list -> Memfs.t
(** A certification authority: a file system of symbolic links.  Serve
    it read-only (signed snapshot) for the paper's CA deployment. *)

val add_revocation_dir : Memfs.t -> Revocation.t list -> unit
(** Publish revocation certificates as files named by base-32 HostID
    (anyone may submit one: they are self-authenticating). *)

val scan_revocation_dir : Agent.t -> Vfs.t -> string -> int
(** Agent-side sweep of a revocation directory (possibly on a distrusted
    CA — scanning is safe); returns how many certificates were learned. *)

(* sfslint: allow SL014 — §2.4: the agent that bridges an existing PKI *)
val install_pki_gateway :
  Agent.t -> prefix:string -> lookup:(string -> (string * Rabin.pub) option) -> unit
(** Bridge an existing PKI: names [prefix^host] under /sfs resolve
    through the oracle to generated self-certifying pathnames
    (the paper's SSL-certificate agent). *)

(* sfslint: allow SL014 — §2.4: forwarding symlinks for a moved file system *)
val install_forwarding_root : Memfs.t -> new_path:Pathname.t -> unit
(** Replace a moved file system's root contents with forwarding
    symlinks to the new self-certifying pathname. *)
