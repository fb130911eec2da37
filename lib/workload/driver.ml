(* Workload driver helpers: file operations over a stack's VFS, each
   charged a fixed system-call overhead (the cost any stack pays to
   enter the kernel, ~1999 hardware). *)

module Simclock = Sfs_net.Simclock
module Vfs = Sfs_core.Vfs

let syscall_us = 30.0

exception Workload_failure of string

let fail fmt = Printf.ksprintf (fun s -> raise (Workload_failure s)) fmt

let charge (w : Stacks.world) = Simclock.advance w.Stacks.clock syscall_us

let ok (what : string) = function
  | Ok v -> v
  | Error e -> fail "%s: %s" what (Vfs.verror_to_string e)

let mkdir w path =
  charge w;
  ok ("mkdir " ^ path) (Vfs.mkdir w.Stacks.vfs w.Stacks.cred path)

let write_file w path data =
  charge w;
  ok ("write " ^ path) (Vfs.write_file w.Stacks.vfs w.Stacks.cred path data)

let read_file w path =
  charge w;
  ok ("read " ^ path) (Vfs.read_file w.Stacks.vfs w.Stacks.cred path)

let read_at w path ~off ~count =
  charge w;
  ok ("read_at " ^ path) (Vfs.read_at w.Stacks.vfs w.Stacks.cred path ~off ~count)

let write_at w path ~off data =
  charge w;
  ok ("write_at " ^ path) (Vfs.write_at w.Stacks.vfs w.Stacks.cred path ~off data)

let create w path =
  charge w;
  ok ("create " ^ path) (Vfs.create w.Stacks.vfs w.Stacks.cred path)

let stat w path =
  charge w;
  ok ("stat " ^ path) (Vfs.stat w.Stacks.vfs w.Stacks.cred path)

let stat_probe w path =
  (* A stat expected to fail with ENOENT (compiler include-path probe). *)
  charge w;
  match Vfs.stat w.Stacks.vfs w.Stacks.cred path with
  | Ok _ -> fail "probe unexpectedly hit: %s" path
  | Error (Vfs.Errno Sfs_nfs.Nfs_types.NFS3ERR_NOENT) -> ()
  | Error e -> fail "probe %s: %s" path (Vfs.verror_to_string e)

let access w path want =
  charge w;
  ok ("access " ^ path) (Vfs.access w.Stacks.vfs w.Stacks.cred path want)

let readdir w path =
  charge w;
  ok ("readdir " ^ path) (Vfs.readdir w.Stacks.vfs w.Stacks.cred path)

let unlink w path =
  charge w;
  ok ("unlink " ^ path) (Vfs.unlink w.Stacks.vfs w.Stacks.cred path)

let commit w path =
  charge w;
  ok ("commit " ^ path) (Vfs.commit w.Stacks.vfs w.Stacks.cred path)

(* Deterministic pseudo-random content so runs are reproducible and
   data moves through the real marshaling/crypto paths. *)
let content ~(seed : int) (n : int) : string =
  let state = ref (seed * 2654435761) in
  String.init n (fun _ ->
      state := (!state * 1103515245) + 12345;
      Char.chr ((!state lsr 16) land 0xff))
