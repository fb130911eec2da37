(** Workload driver: file operations over a stack's VFS, each charged a
    fixed system-call overhead so all stacks pay the same kernel-entry
    cost. *)

exception Workload_failure of string

val syscall_us : float
val charge : Stacks.world -> unit
val fail : ('a, unit, string, 'b) format4 -> 'a

val mkdir : Stacks.world -> string -> unit
val write_file : Stacks.world -> string -> string -> unit
val read_file : Stacks.world -> string -> string
val read_at : Stacks.world -> string -> off:int -> count:int -> string
val write_at : Stacks.world -> string -> off:int -> string -> unit
val create : Stacks.world -> string -> unit
val stat : Stacks.world -> string -> Sfs_nfs.Nfs_types.fattr

val stat_probe : Stacks.world -> string -> unit
(** A stat expected to fail with ENOENT (include-path probing). *)

val access : Stacks.world -> string -> int -> int
val readdir : Stacks.world -> string -> string list
val unlink : Stacks.world -> string -> unit
val commit : Stacks.world -> string -> unit

val content : seed:int -> int -> string
(** Deterministic pseudo-random bytes, so runs are reproducible and
    payloads exercise the real marshaling and crypto paths. *)
