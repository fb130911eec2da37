(* Replica fan-out for the read-only dialect: the CDN tier.

   The paper's pitch — serving a signed snapshot "requires no
   cryptographic computation" and "no on-line copies of the private
   key" — means the serving side can be replicated onto untrusted
   machines at will: a mirror holds the public key and store bytes
   only, and a publisher's crypto bill tracks the file system's size
   and rate of change, never the client count (replica.mli). *)

module Ro = Sfs_proto.Readonly_proto
module Keyneg = Sfs_proto.Keyneg
module Rabin = Sfs_crypto.Rabin
module Memfs = Sfs_nfs.Memfs
module Simnet = Sfs_net.Simnet
module Simclock = Sfs_net.Simclock
module Costmodel = Sfs_net.Costmodel
module Rpc_mux = Sfs_net.Rpc_mux
module Obs = Sfs_obs.Obs
module Slice = Sfs_util.Slice
module Xdr = Sfs_xdr.Xdr

let push_port = 5

(* --- Mirror --- *)

(* A read-only store that starts empty, its Location and the key it serves. *)
type mirror = { store : Readonly.store; location : string; pubkey : Rabin.pub }

let mirror ?obs ~(clock : Simclock.t) ~(location : string) ~(pubkey : Rabin.pub) () : mirror =
  { store = { Readonly.frames = Hashtbl.create 256; root = None; clock; obs }; location; pubkey }

let path (m : mirror) : Pathname.t = Pathname.of_server ~location:m.location ~pubkey:m.pubkey

(* The push half: objects are stored as frames; reads must take the connect step. *)
let push (st : Readonly.store) (bytes : string) : string =
  let reply r = Ro.ro_response_to_string r in
  match Ro.ro_request_of_string bytes with
  | Ok (Ro.Put_objs objs) ->
      let total =
        List.fold_left
          (fun acc (h, o) ->
            Hashtbl.replace st.Readonly.frames h (Ro.obj_frame o);
            acc + Slice.length o)
          0 objs
      in
      Readonly.serve_cost st total;
      reply (Ro.Put_ok (List.length objs))
  | Ok (Ro.Put_root { fsinfo; signature; evict }) ->
      (* The root swap is what makes a push take effect atomically:
         until it lands, clients keep being served the old tree. *)
      List.iter (Hashtbl.remove st.Readonly.frames) evict;
      st.Readonly.root <- Some (fsinfo, reply (Ro.Fsinfo_is { fsinfo; signature }));
      Readonly.serve_cost st 64;
      reply (Ro.Put_ok (List.length evict))
  | _ -> reply (Ro.Ro_error "push port: Put_objs and Put_root only")

(* The read half: the connect step for the mirror's own pathname, then
   the read-only dialect; a mirror runs no other service. *)
let service (m : mirror) (req : Keyneg.connect_req) : (string -> string, string) result =
  match req.Keyneg.service with
  | Keyneg.Fs_readonly -> Ok (Readonly.serve m.store)
  | Keyneg.Fs | Keyneg.Auth -> Error "a mirror serves only the read-only dialect"

let attach (net : Simnet.t) (m : mirror) : Simnet.host =
  let host = Simnet.add_host net m.location in
  Simnet.listen net host ~port:Keyneg.sfs_port (fun ~peer:_ ->
      Keyneg.respond ~location:m.location ~pubkey:m.pubkey ~revoked:(fun () -> None) (service m));
  Simnet.listen net host ~port:push_port (fun ~peer:_ -> push m.store);
  host

let mirror_root (m : mirror) : Ro.fsinfo option = Option.map fst m.store.Readonly.root
let mirror_objects (m : mirror) : int = Hashtbl.length m.store.Readonly.frames

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
        Simnet.connect p.p_net ~from_host:p.p_host ~addr:t.t_addr ~port:push_port
          ~proto:Costmodel.Tcp
      in
      let mux = Rpc_mux.of_conn p.p_net ~proto:Costmodel.Tcp c in
      t.t_conn <- Some (c, mux);
      mux

let disconnect (t : target) : unit =
  Option.iter (fun (c, _) -> Simnet.close c) t.t_conn;
  t.t_conn <- None

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
      (fun h obj acc -> if Hashtbl.mem t.t_synced h then acc else (h, obj) :: acc)
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
              disconnect t;
              Obs.incr p.p_obs "ro.fanout.failed";
              failed + 1)
        0 targets
