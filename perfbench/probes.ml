(* Standalone probes for layers the benchmark cannot wrap from outside:
   Channel seal+open, the Simclock event queue, Vcache and SHA-1.  Each
   is the median of five timed batches, in real µs per iteration.
   Multiplied by a run's own counts they give the derived [*.est_share]
   metrics -- estimates, not measurements of the run itself. *)

module Channel = Sfs_proto.Channel
module Simclock = Sfs_net.Simclock
module Vcache = Sfs_core.Vcache
module Ro = Sfs_proto.Readonly_proto
module Sha1 = Sfs_crypto.Sha1
module Fleet = Sfs_workload.Fleet

type t = {
  seal_8k : float; (* seal + open of an 8192-byte message *)
  seal_small : float; (* ... of the run's mean client-to-server message *)
  seal_reply : float; (* ... of the run's mean server-to-client message *)
  event : float; (* Simclock.schedule + run_next, 1024 events pending *)
  vcache : float; (* Vcache.find, plus add on a miss, at cap 256 *)
  sha1_8k : float; (* Sha1.digest of 8192 bytes *)
}

let per_iter_us ~(iters : int) (f : unit -> unit) : float =
  f ();
  Meter.median
    (Array.init 5 (fun _ ->
         let t0 = Meter.mono_ns () in
         for _ = 1 to iters do
           f ()
         done;
         (Meter.mono_ns () -. t0) /. 1000.0 /. float_of_int iters))

let seal_open_us (size : int) : float =
  let k1 = String.make 20 'a' and k2 = String.make 20 'b' in
  let tx = Channel.create ~send_key:k1 ~recv_key:k2 () in
  let rx = Channel.create ~send_key:k2 ~recv_key:k1 () in
  let payload = String.make (max 1 size) 'p' in
  per_iter_us
    ~iters:(max 50 (4_000_000 / (size + 256)))
    (fun () ->
      match Channel.open_ rx (Channel.seal tx payload) with
      | Ok _ -> ()
      | Error _ -> failwith "perfbench: channel probe failed to open its own message")

let event_us () : float =
  let clock = Simclock.create () in
  let offsets = Array.init 4096 (fun i -> float_of_int ((i * 7919) mod 1000)) in
  for i = 0 to 1023 do
    Simclock.schedule clock ~at_us:(offsets.(i) *. 1000.0) ignore
  done;
  let i = ref 0 in
  per_iter_us ~iters:20_000 (fun () ->
      incr i;
      Simclock.schedule clock ~at_us:(Simclock.now_us clock +. offsets.(!i land 4095)) ignore;
      ignore (Simclock.run_next clock))

let vcache_us () : float =
  let v = Vcache.create ~cap:256 () in
  let objs =
    Array.init 512 (fun i ->
        let o = Ro.O_file (Printf.sprintf "%08d" i ^ String.make 8184 'v') in
        (Ro.hash_obj o, o))
  in
  let cdf = Fleet.zipf_cdf ~n:512 ~theta:1.0 in
  let rng = Sfs_crypto.Prng.create [ "perfbench-vcache-probe" ] in
  let draws = Array.init 4096 (fun _ -> Fleet.zipf_sample cdf rng) in
  let i = ref 0 in
  per_iter_us ~iters:20_000 (fun () ->
      incr i;
      let h, o = objs.(draws.(!i land 4095)) in
      match Vcache.find v h with Some _ -> () | None -> Vcache.add v ~hash:h ~bytes:8192 o)

let sha1_8k_us () : float =
  let s = String.make 8192 's' in
  per_iter_us ~iters:500 (fun () -> ignore (Sha1.digest s))

(* [client_frame] and [server_frame] are the run's mean sealed message
   sizes per direction, from its channel counters; 0 when the run used
   no channel. *)
let run ~(client_frame : float) ~(server_frame : float) : t =
  let size f default = if f >= 1.0 then int_of_float f else default in
  {
    seal_8k = seal_open_us 8192;
    seal_small = seal_open_us (size client_frame 128);
    seal_reply = seal_open_us (size server_frame 8192);
    event = event_us ();
    vcache = vcache_us ();
    sha1_8k = sha1_8k_us ();
  }

let metrics (p : t) : (string * float) list =
  [
    ("channel.seal_open_8k_us", p.seal_8k);
    ("channel.seal_open_small_us", p.seal_small);
    ("channel.seal_open_reply_us", p.seal_reply);
    ("engine.schedule_run_us", p.event);
    ("vcache.find_add_us", p.vcache);
    ("readonly.sha1_8k_us", p.sha1_8k);
  ]
