(** Direct {!Fs_intf.ops} over a local {!Memfs}, charging the disk
    model.  This is both the "Local" benchmark stack (FreeBSD FFS in
    the paper) and the storage behind NFS and SFS servers. *)

val make : fs:Memfs.t -> disk:Diskmodel.t -> Fs_intf.ops
