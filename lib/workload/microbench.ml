(* Figure 5 micro-benchmarks: latency and throughput of basic
   operations.

   Latency: "the cost of a file system operation that always requires a
   remote RPC but never requires a disk access — an unauthorized fchown
   system call" — we issue a setattr changing the owner from a non-root
   user, which every stack must refer to the server and which no cache
   absorbs.

   Throughput: "we sequentially read a sparse, 1,000 Mbyte file"; we
   scale to 64 MB (the shape is bandwidth-bound and flat in file size)
   and pre-warm the server's buffer cache so no disk time is charged,
   matching the sparse-file trick. *)

module Simclock = Sfs_net.Simclock
module Simos = Sfs_os.Simos
module Memfs = Sfs_nfs.Memfs
module Diskmodel = Sfs_nfs.Diskmodel
module Vfs = Sfs_core.Vfs

type result = { latency_us : float; throughput_mb_s : float }

let latency_rounds = 200

let latency_us (w : Stacks.world) : float =
  let path = w.Stacks.workdir ^ "/latency-probe" in
  Driver.write_file w path "x";
  (* Attempted chown by a non-root user: always EPERM at the server. *)
  let op () =
    Driver.charge w;
    match
      Vfs.resolve w.Stacks.vfs w.Stacks.cred path
    with
    | Error e -> Driver.fail "latency probe: %s" (Vfs.verror_to_string e)
    | Ok (ops, fh) -> (
        match
          ops.Sfs_nfs.Fs_intf.fs_setattr w.Stacks.cred fh
            { Sfs_nfs.Nfs_types.sattr_empty with Sfs_nfs.Nfs_types.set_uid = Some 0 }
        with
        | Error Sfs_nfs.Nfs_types.NFS3ERR_PERM | Error Sfs_nfs.Nfs_types.NFS3ERR_ACCES -> ()
        | Error e -> Driver.fail "latency probe: %s" (Sfs_nfs.Nfs_types.status_to_string e)
        | Ok _ -> Driver.fail "latency probe: fchown unexpectedly allowed")
  in
  (* Warm up path resolution, then measure. *)
  op ();
  let t0 = Simclock.now_us w.Stacks.clock in
  for _ = 1 to latency_rounds do
    op ()
  done;
  (Simclock.now_us w.Stacks.clock -. t0) /. float_of_int latency_rounds
  -. Driver.syscall_us (* report the RPC itself, as the paper does *)

let throughput_file_mb = 64
let chunk = 8192

let throughput_mb_s (w : Stacks.world) : float =
  let bytes = throughput_file_mb * 1024 * 1024 in
  (* Seed the file directly in the server file system and pre-warm the
     server disk cache (the paper's file is sparse: no disk I/O). *)
  let root_cred = Simos.cred_of_user Simos.root_user in
  let fid, _ =
    match Memfs.create_file w.Stacks.server_fs root_cred ~dir:Memfs.root_id "sparse-64mb" ~mode:0o666 with
    | Ok v -> v
    | Error e -> Driver.fail "seed: %s" (Sfs_nfs.Nfs_types.status_to_string e)
  in
  (match
     Memfs.setattr w.Stacks.server_fs root_cred fid
       { Sfs_nfs.Nfs_types.sattr_empty with Sfs_nfs.Nfs_types.set_size = Some bytes }
   with
  | Ok _ -> ()
  | Error e -> Driver.fail "seed: %s" (Sfs_nfs.Nfs_types.status_to_string e));
  for b = 0 to (bytes / Sfs_nfs.Nfs_types.block_size) - 1 do
    Diskmodel.write w.Stacks.server_disk ~fileid:fid ~off:(b * Sfs_nfs.Nfs_types.block_size)
      ~bytes:Sfs_nfs.Nfs_types.block_size ~stable:false
  done;
  let path =
    match w.Stacks.stack with
    | Stacks.Local -> "/sparse-64mb"
    | Stacks.Nfs_udp | Stacks.Nfs_tcp -> "/mnt/sparse-64mb"
    | Stacks.Sfs | Stacks.Sfs_noenc | Stacks.Sfs_nocache ->
        String.concat "/"
          [ Sfs_core.Pathname.to_string (Sfs_core.Server.self_path (Option.get w.Stacks.sfs_server)); "sparse-64mb" ]
  in
  (* Sequential read, 8 KB at a time, via a single resolved handle. *)
  let ops, fh =
    match Vfs.resolve w.Stacks.vfs w.Stacks.cred path with
    | Ok v -> v
    | Error e -> Driver.fail "resolve: %s" (Vfs.verror_to_string e)
  in
  let t0 = Simclock.now_us w.Stacks.clock in
  let off = ref 0 in
  while !off < bytes do
    Driver.charge w;
    (match ops.Sfs_nfs.Fs_intf.fs_read w.Stacks.cred fh ~off:!off ~count:chunk with
    | Ok (data, _, _) -> if String.length data <> chunk then Driver.fail "short read"
    | Error e -> Driver.fail "read: %s" (Sfs_nfs.Nfs_types.status_to_string e));
    off := !off + chunk
  done;
  let elapsed_s = (Simclock.now_us w.Stacks.clock -. t0) /. 1_000_000.0 in
  float_of_int throughput_file_mb /. elapsed_s

(* One Figure 5 row.  Returns the worlds too (latency then throughput)
   so the caller can export their observability registries. *)
let run (stack : Stacks.stack) : result * Stacks.world list =
  (* Latency world: defaults suffice. *)
  let w = Stacks.make stack in
  let latency = latency_us w in
  (* Throughput world: a server cache big enough to hold the file. *)
  let params = { Diskmodel.default_params with Diskmodel.cache_blocks = 16384 } in
  let w2 = Stacks.make ~server_disk_params:params stack in
  let thru = throughput_mb_s w2 in
  ({ latency_us = latency; throughput_mb_s = thru }, [ w; w2 ])
