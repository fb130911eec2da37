(* Replica fan-out for the read-only dialect: the CDN tier.

   The paper's pitch — serving a signed snapshot "requires no
   cryptographic computation" and "no on-line copies of the private
   key" — means the serving side can be replicated onto untrusted
   machines at will.  This module provides the two halves:

   - A [mirror]: a dumb content-addressed byte store behind the wire
     protocol.  It verifies nothing (it could not be trusted to), it
     merely answers Get_fsinfo/Get_obj and accepts Put_objs/Put_root
     pushes.  Clients re-verify every object against the hash chain, so
     the worst a compromised mirror can do is fail to serve.

   - A [publisher]: holds the file system and the private key, builds
     incremental snapshots (one Rabin signing per publish, SHA-1 only
     over content that actually changed), and pushes the delta — new
     objects plus the new signed root plus an evict list — to each
     mirror.  Cryptographic cost is proportional to the file system's
     size and rate of change, never to the client count.

   The mirror's store models an on-disk object store: it survives a
   simulated crash/restart (crash epochs kill TCP connections, not the
   disk), so a recovering mirror resumes from its last synced state and
   the publisher only ships what is missing. *)

module Ro = Sfs_proto.Readonly_proto
module Rabin = Sfs_crypto.Rabin
module Memfs = Sfs_nfs.Memfs
module Simnet = Sfs_net.Simnet
module Simclock = Sfs_net.Simclock
module Costmodel = Sfs_net.Costmodel
module Rpc_mux = Sfs_net.Rpc_mux
module Obs = Sfs_obs.Obs
module Slice = Sfs_util.Slice
module Xdr = Sfs_xdr.Xdr

let ro_port = 5

(* --- Mirror --- *)

type mirror = {
  mi_store : (string, string) Hashtbl.t;
      (* hash -> the Obj_is reply frame carrying the object, built once
         when the object is pushed and sent as is to every client *)
  mutable mi_fsinfo : Ro.fsinfo option;
  mutable mi_signature : string;
  mi_clock : Simclock.t;
  mi_obs : Obs.registry option;
  mutable mi_served_objs : int;
  mutable mi_served_bytes : int;
}

let mirror ?obs ~(clock : Simclock.t) () : mirror =
  {
    mi_store = Hashtbl.create 256;
    mi_fsinfo = None;
    mi_signature = "";
    mi_clock = clock;
    mi_obs = obs;
    mi_served_objs = 0;
    mi_served_bytes = 0;
  }

(* Serving an object costs a protection-boundary crossing plus a buffer
   copy — no cryptography.  Charged inside the handler, so Simnet
   attributes it to the mirror host's run queue. *)
let serve_cost (m : mirror) (bytes : int) : unit =
  Simclock.advance m.mi_clock
    (Costmodel.userlevel_us_per_side
    +. (float_of_int bytes /. Costmodel.copy_bytes_per_us))

(* The length of the object inside a stored frame: its XDR length
   word, behind the reply tag. *)
let obj_length (frame : string) : int = Sfs_util.Bytesutil.int_of_be32 frame ~off:4

(* Serving an object is a lookup and a send: the stored frame is the
   reply.  Every client shares that one string, which is safe because
   strings are immutable and a tampering wire rewrites a copy. *)
let handle (m : mirror) (bytes : string) : string =
  let reply r = Ro.ro_response_to_string r in
  match Ro.ro_request_of_string bytes with
  | Result.Error e -> reply (Ro.Ro_error e)
  | Ok Ro.Get_fsinfo -> (
      match m.mi_fsinfo with
      | None -> reply (Ro.Ro_error "no root published")
      | Some fsinfo ->
          serve_cost m 64;
          reply (Ro.Fsinfo_is { fsinfo; signature = m.mi_signature }))
  | Ok (Ro.Get_obj h) -> (
      match Hashtbl.find_opt m.mi_store h with
      | None -> reply (Ro.Ro_error "no such object")
      | Some frame ->
          let n = obj_length frame in
          serve_cost m n;
          m.mi_served_objs <- m.mi_served_objs + 1;
          m.mi_served_bytes <- m.mi_served_bytes + n;
          Obs.incr m.mi_obs "ro.serve.objs";
          Obs.add m.mi_obs "ro.serve.bytes" n;
          frame)
  | Ok (Ro.Put_objs objs) ->
      let total =
        List.fold_left
          (fun acc (h, o) ->
            Hashtbl.replace m.mi_store h (Ro.obj_frame o);
            acc + Slice.length o)
          0 objs
      in
      serve_cost m total;
      reply (Ro.Put_ok (List.length objs))
  | Ok (Ro.Put_root { fsinfo; signature; evict }) ->
      (* The root swap is what makes a push take effect atomically:
         until it lands, clients keep being served the old tree. *)
      List.iter (Hashtbl.remove m.mi_store) evict;
      m.mi_fsinfo <- Some fsinfo;
      m.mi_signature <- signature;
      serve_cost m 64;
      reply (Ro.Put_ok (List.length evict))

let attach (net : Simnet.t) (m : mirror) (host : Simnet.host) : unit =
  Simnet.listen net host ~port:ro_port (fun ~peer:_ -> handle m)

let mirror_root (m : mirror) : Ro.fsinfo option = m.mi_fsinfo
let mirror_objects (m : mirror) : int = Hashtbl.length m.mi_store
let mirror_served (m : mirror) : int * int = (m.mi_served_objs, m.mi_served_bytes)

(* --- Publisher --- *)

type publisher = {
  p_key : Rabin.priv; [@sfs.secret]
      (* the only place the private key lives: never shipped to mirrors *)
  p_fs : Memfs.t;
  p_net : Simnet.t;
  p_host : string; (* the publisher's own host name, for dialing out *)
  p_clock : Simclock.t;
  p_obs : Obs.registry option;
  mutable p_snapshot : Readonly.snapshot option;
  mutable p_serial : int;
}

type target = {
  t_addr : string;
  mutable t_conn : (Simnet.conn * string Rpc_mux.t) option; (* the push connection and its mux *)
  t_synced : (string, unit) Hashtbl.t;
      (* hashes the mirror acknowledged; confirmed per Put_objs reply,
         so a push that dies mid-stream resumes where it stopped *)
}

let publisher ?obs ~(net : Simnet.t) ~(host : string) ~(key : Rabin.priv) ~(clock : Simclock.t)
    (fs : Memfs.t) : publisher =
  {
    p_key = key;
    p_fs = fs;
    p_net = net;
    p_host = host;
    p_clock = clock;
    p_obs = obs;
    p_snapshot = None;
    p_serial = 0;
  }

let pubkey (p : publisher) : Rabin.pub = p.p_key.Rabin.pub
let current (p : publisher) : Readonly.snapshot option = p.p_snapshot
let target ~(addr : string) : target =
  { t_addr = addr; t_conn = None; t_synced = Hashtbl.create 256 }

(* Build the next snapshot incrementally off the previous one and sign
   it: SHA-1 is billed only for content that changed, the Rabin signing
   happens exactly once — this is the whole publish-side crypto bill,
   independent of how many mirrors or clients exist. *)
let publish (p : publisher) : Readonly.snapshot =
  p.p_serial <- p.p_serial + 1;
  let snap =
    Readonly.snapshot ~serial:p.p_serial ?prev:p.p_snapshot
      ~key:p.p_key
      ~now_s:(Simclock.seconds p.p_clock)
      p.p_fs
  in
  Simclock.advance p.p_clock
    ((float_of_int (Readonly.fresh_bytes snap) *. Costmodel.sha1_us_per_byte)
    +. Costmodel.rabin_sign_us);
  let reused, hashed = Readonly.reuse_stats snap in
  Obs.incr p.p_obs "ro.publish.count";
  Obs.add p.p_obs "ro.publish.reused" reused;
  Obs.add p.p_obs "ro.publish.hashed" hashed;
  Obs.add p.p_obs "ro.publish.fresh_bytes" (Readonly.fresh_bytes snap);
  p.p_snapshot <- Some snap;
  snap

(* Objects per Put_objs frame.  Bounded so one push RPC stays a
   reasonable wire unit and a mid-push crash loses at most a chunk. *)
let chunk_objs = 64

let mux_of (p : publisher) (t : target) : string Rpc_mux.t =
  match t.t_conn with
  | Some (_, mux) -> mux
  | None ->
      let c =
        Simnet.connect p.p_net ~from_host:p.p_host ~addr:t.t_addr ~port:ro_port
          ~proto:Costmodel.Tcp
      in
      let mux = Rpc_mux.of_conn p.p_net ~proto:Costmodel.Tcp c in
      t.t_conn <- Some (c, mux);
      mux

let disconnect (t : target) : unit =
  (match t.t_conn with Some (c, _) -> (try Simnet.close c with _ -> ()) | None -> ());
  t.t_conn <- None

let drop_conn = disconnect

let rec chunked (n : int) (xs : 'a list) : 'a list list =
  if xs = [] then []
  else
    let rec take k acc rest = match (k, rest) with
      | 0, _ | _, [] -> (List.rev acc, rest)
      | k, x :: tl -> take (k - 1) (x :: acc) tl
    in
    let head, tail = take n [] xs in
    head :: chunked n tail

(* Push the delta to one mirror: objects it is missing (confirmed via
   [t_synced]), then the signed root with an evict list.  Raises on
   transport failure (Timeout / No_route); [fan_out] catches. *)
let push_target (p : publisher) (snap : Readonly.snapshot) (t : target) : unit =
  let mux = mux_of p t in
  (* One encoder marshals every chunk of this push. *)
  let enc = Xdr.make_enc () in
  let exchange req =
    Simclock.advance p.p_clock Costmodel.userlevel_us_per_side;
    Xdr.reset enc;
    Ro.enc_ro_request enc req;
    match Ro.ro_response_of_string (Rpc_mux.call mux (Xdr.to_string enc)) with
    | Ok r -> r
    | Result.Error e -> failwith ("replica push: " ^ e)
  in
  let missing =
    Readonly.fold_store snap
      (fun h bytes acc ->
        if Hashtbl.mem t.t_synced h then acc else (h, Slice.of_string bytes) :: acc)
      []
  in
  (* Sort for canonical wire bytes: the store hashtable's fold order is
     an implementation detail; determinism gates diff the wire. *)
  let missing = List.sort (fun (a, _) (b, _) -> compare a b) missing in
  List.iter
    (fun chunk ->
      match exchange (Ro.Put_objs chunk) with
      | Ro.Put_ok _ ->
          List.iter (fun (h, _) -> Hashtbl.replace t.t_synced h ()) chunk;
          Obs.add p.p_obs "ro.fanout.objs" (List.length chunk);
          Obs.add p.p_obs "ro.fanout.bytes"
            (List.fold_left (fun a (_, b) -> a + Slice.length b) 0 chunk)
      | Ro.Ro_error e -> failwith ("replica push refused: " ^ e)
      | Ro.Fsinfo_is _ | Ro.Obj_is _ -> failwith "replica push: unexpected response")
    (chunked chunk_objs missing);
  let evict =
    List.sort compare
      (Hashtbl.fold (fun h () acc -> if Readonly.mem snap h then acc else h :: acc) t.t_synced [])
  in
  match
    exchange
      (Ro.Put_root { fsinfo = Readonly.fsinfo snap; signature = Readonly.signature snap; evict })
  with
  | Ro.Put_ok _ ->
      List.iter (Hashtbl.remove t.t_synced) evict;
      Obs.add p.p_obs "ro.fanout.evicted" (List.length evict)
  | Ro.Ro_error e -> failwith ("replica root push refused: " ^ e)
  | Ro.Fsinfo_is _ | Ro.Obj_is _ -> failwith "replica root push: unexpected response"

(* Push the current snapshot to every target; a mirror that is down or
   partitioned is skipped (its connection is dropped so the next
   fan-out redials) and counted.  Returns the number of failed targets.
   Note what does NOT travel here: only store bytes, the fsinfo, and
   its signature — never [p_key]. *)
let fan_out (p : publisher) (targets : target list) : int =
  match p.p_snapshot with
  | None -> invalid_arg "Replica.fan_out: nothing published yet"
  | Some snap ->
      List.fold_left
        (fun failed t ->
          match push_target p snap t with
          | () -> failed
          | exception (Simnet.Timeout | Simnet.No_route _ | Failure _) ->
              drop_conn t;
              Obs.incr p.p_obs "ro.fanout.failed";
              failed + 1)
        0 targets
