(* sfscd — the SFS client (paper sections 2.2, 2.3, 3, 3.3).

   The client automounts self-certifying pathnames: a reference to
   /sfs/Location:HostID dials Location, runs key negotiation, verifies
   the HostID, and exposes the remote file system.  Stripped of "any
   notion of administrative realm": no configuration names any server;
   the pathnames users access are the entire policy.

   Each mount carries: the secure channel, SFS-style caching (leases +
   piggybacked invalidation callbacks), per-user authentication numbers
   negotiated through agents, and the per-RPC user-level crossing cost
   the paper measures.  Mounts are shared between users — safe, because
   users who named the same HostID asked for the same public key
   (section 5.1's answer to the AFS cache-sharing conundrum). *)

open Sfs_nfs.Nfs_types
module Fs_intf = Sfs_nfs.Fs_intf
module Nfs_client = Sfs_nfs.Nfs_client
module Cachefs = Sfs_nfs.Cachefs
module Simos = Sfs_os.Simos
module Simnet = Sfs_net.Simnet
module Simclock = Sfs_net.Simclock
module Costmodel = Sfs_net.Costmodel
module Rpc_mux = Sfs_net.Rpc_mux
module Rabin = Sfs_crypto.Rabin
module Prng = Sfs_crypto.Prng
module Keyneg = Sfs_proto.Keyneg
module Channel = Sfs_proto.Channel
module Authproto = Sfs_proto.Authproto
module Sfsrw = Sfs_proto.Sfsrw
module Xdr = Sfs_xdr.Xdr
module Obs = Sfs_obs.Obs
module Slice = Sfs_util.Slice

type mount_error =
  | Host_unreachable of string
  | Revoked of Revocation.t option (* the verified certificate, when parsable *)
  | Negotiation_failed of string

let mount_error_to_string = function
  | Host_unreachable l -> "host unreachable: " ^ l
  | Revoked (Some cert) -> (
      match Revocation.body_of cert with
      | Revocation.Revoke -> "pathname revoked"
      | Revocation.Forward p -> "pathname forwarded to " ^ Pathname.to_string p)
  | Revoked None -> "server sent an invalid revocation certificate"
  | Negotiation_failed e -> "key negotiation failed: " ^ e

(* Channel, connection and session identity are mutable: when the
   secure channel desyncs (MAC failure, server restart, dead TCP
   connection) the client tears the transport down and renegotiates in
   place, keeping the mount — and every [Fs_intf.ops] closure handed
   out — valid across the swap. *)
type mount = {
  m_path : Pathname.t;
  mutable m_session_id : string;
  mutable m_channel : Channel.t;
  mutable m_conn : Simnet.conn;
  m_invalidations : fh list ref;
  mutable m_cache : Cachefs.t option; (* None only during mount setup *)
  mutable m_ops : Fs_intf.ops option; (* cache-wrapped, what users consume *)
  m_authnos : (int, int) Hashtbl.t; (* uid -> authno; reset on reconnect *)
  m_agents : (int, Agent.t) Hashtbl.t; (* uid -> agent, for re-authentication *)
  mutable m_seqno : int;
  m_enc : Xdr.enc; (* every Fs_call is marshaled here, then sealed *)
  m_readonly : bool;
}

type t = {
  net : Simnet.t;
  clock : Simclock.t;
  rng : Prng.t;
  from_host : string;
  mutable temp_key : Rabin.priv option;
  mutable temp_key_born_us : float;
  mounts : (string, mount) Hashtbl.t; (* by Pathname.to_name *)
  encrypt : bool; (* ablation switch: "SFS w/o encryption" *)
  cache_policy : Cachefs.policy;
  rpc_window : int; (* concurrent in-flight calls (1 = fully serial) *)
  readahead : int; (* sequential-read prefetch depth, in blocks *)
  obs : Obs.registry option;
}

(* K_C: a 512-bit Rabin key, regenerated hourly. *)
let temp_key_bits = 512
let temp_key_lifetime_us = 3600.0 *. 1_000_000.0

(* Per-RPC recovery, counting the first transmission. *)
let rpc_backoff = { Nfs_client.attempts = 8; base_us = 50_000.0; max_us = 1_600_000.0 }

let create ?temp_key ?(encrypt = true) ?(cache_policy = Cachefs.sfs_policy) ?(rpc_window = 1)
    ?(readahead = 0) ?obs (net : Simnet.t) ~(from_host : string) ~(rng : Prng.t) () : t =
  {
    net;
    clock = Simnet.clock net;
    rng;
    from_host;
    (* A pre-generated [temp_key] lets a fleet of simulated clients on
       one machine share a single K_C (generating 10,000 of them is
       real CPU); lifetime rotation still applies from t=0. *)
    temp_key;
    temp_key_born_us = 0.0;
    mounts = Hashtbl.create 8;
    encrypt;
    cache_policy;
    rpc_window = max 1 rpc_window;
    readahead = max 0 readahead;
    obs;
  }

(* "Clients discard and regenerate K_C at regular intervals (every hour
   by default)" — forward secrecy. *)
let temp_key (t : t) : Rabin.priv =
  let now = Simclock.now_us t.clock in
  match t.temp_key with
  | Some k when now -. t.temp_key_born_us < temp_key_lifetime_us -> k
  | _ ->
      let k = Rabin.generate ~bits:temp_key_bits t.rng in
      t.temp_key <- Some k;
      t.temp_key_born_us <- now;
      k

let find_mount (t : t) (path : Pathname.t) : mount option =
  Hashtbl.find_opt t.mounts (Pathname.to_name path)

let mounts (t : t) : mount list = Hashtbl.fold (fun _ m acc -> m :: acc) t.mounts []

(* Decode an opened reply frame in place.  Invalidation callbacks are
   banked eagerly, so a readahead ticket the cache later abandons never
   loses one. *)
let decode_response (m : mount) (frame : Slice.t) : (Sfsrw.response, string) result =
  match Sfsrw.response_of_slice frame with
  | Result.Error _ as e -> e
  | Ok r ->
      (match r with
      | Sfsrw.Fs_reply { invalidations; _ } ->
          m.m_invalidations := !(m.m_invalidations) @ invalidations
      | Sfsrw.Auth_granted _ | Sfsrw.Auth_denied _ | Sfsrw.Proto_error _ -> ());
      Ok r

(* --- Mounting --- *)

(* Dial the server and run key negotiation over a handshake mux on the
   new connection; the building block of both the initial mount and
   every reconnection. *)
let dial (t : t) (path : Pathname.t) : (Simnet.conn * Channel.t * string, mount_error) result =
  let location = Pathname.location path in
  match
    Simnet.connect t.net ~from_host:t.from_host ~addr:location ~port:Server.sfs_port
      ~proto:Costmodel.Tcp
  with
  | exception Simnet.No_route _ -> Error (Host_unreachable location)
  | exception Simnet.Timeout -> Error (Host_unreachable location)
  | conn -> (
      let hs = Rpc_mux.of_conn t.net ~proto:Costmodel.Tcp conn in
      let extensions = if t.encrypt then [] else [ "no-encrypt" ] in
      match
        Keyneg.client_negotiate ~extensions ~rng:t.rng ~temp_key:(temp_key t) ~location
          ~hostid:(Pathname.hostid path) ~service:Keyneg.Fs (Rpc_mux.call hs)
      with
      | exception Keyneg.Host_revoked certificate ->
          Simnet.close conn;
          Error (Revoked (Revocation.cert_for path certificate))
      | exception Keyneg.Negotiation_failed e ->
          Simnet.close conn;
          Error (Negotiation_failed e)
      | exception Simnet.Timeout ->
          Simnet.close conn;
          Error (Host_unreachable location)
      | { Keyneg.keys; _ } ->
          let channel =
            Channel.create ~encrypt:t.encrypt ~clock:t.clock ?obs:t.obs
              ~label:"client" ~send_key:keys.Keyneg.kcs ~recv_key:keys.Keyneg.ksc ()
          in
          Ok (conn, channel, keys.Keyneg.session_id))

(* --- User authentication (Figure 4, client and agent side) --- *)

let authenticate ?local_uid (t : t) (m : mount) (agent : Agent.t) : int =
  (* [local_uid] is the local credential the agent is answering for —
     normally the agent's own user, but ssu maps a super-user shell to
     an ordinary user's agent (paper footnote 2). *)
  let uid = Option.value local_uid ~default:(Agent.user agent).Simos.uid in
  if not m.m_readonly then Hashtbl.replace m.m_agents uid agent;
  match Hashtbl.find_opt m.m_authnos uid with
  | Some authno -> authno
  | None ->
      if m.m_readonly then begin
        Hashtbl.replace m.m_authnos uid Sfsrw.authno_anonymous;
        Sfsrw.authno_anonymous
      end
      else begin
        Obs.incr t.obs "client.auth_attempts";
        Obs.span t.obs ~cat:"client" "authenticate" (fun () ->
            let info =
              {
                Authproto.service = "FS";
                location = Pathname.location m.m_path;
                hostid = Pathname.hostid m.m_path;
                session_id = m.m_session_id;
              }
            in
            let base = m.m_seqno in
            let msgs = Agent.sign_requests agent info ~seqno_of:(fun i -> base + i) in
            m.m_seqno <- base + List.length msgs;
            let mux = Rpc_mux.of_conn t.net ~proto:Costmodel.Tcp m.m_conn in
            (* Only an explicit denial means "no": anything else — a
               timeout, a MAC failure, a garbled reply — is a transport
               fault on a now-poisoned channel, and silently degrading
               to anonymous access would be wrong (the server would
               apply the anonymous credential to every later call).
               Propagate as Timeout; reconnection retries the whole
               authentication over a fresh session. *)
            let try_one i msg =
              let req =
                Sfsrw.Auth_req { seqno = base + i; authmsg = Authproto.authmsg_to_string msg }
              in
              let reply = Rpc_mux.call mux (Channel.seal m.m_channel (Sfsrw.request_to_string req)) in
              let granted frame =
                match decode_response m frame with
                | Ok (Sfsrw.Auth_granted { authno; seqno }) when seqno = base + i -> Some authno
                | Ok (Sfsrw.Auth_denied _) -> None
                | Ok (Sfsrw.Auth_granted _ | Sfsrw.Fs_reply _ | Sfsrw.Proto_error _) | Error _ ->
                    raise Simnet.Timeout
              in
              match Channel.open_with m.m_channel reply granted with
              | Ok authno -> authno
              | Error _ -> raise Simnet.Timeout
            in
            (* The first granted request wins; later ones are not sent. *)
            let rec first i = function
              | [] -> None
              | msg :: rest -> ( match try_one i msg with Some _ as a -> a | None -> first (i + 1) rest)
            in
            let authno = first 0 msgs in
            if authno <> None then Obs.incr t.obs "client.auth_granted";
            let authno = Option.value authno ~default:Sfsrw.authno_anonymous in
            Hashtbl.replace m.m_authnos uid authno;
            authno)
      end

(* --- Recovery --- *)

(* Tear the mount's transport down and renegotiate in place: fresh
   connection, fresh channel, fresh session id.  Volatile server state
   (leases, authnos) died with the old session, so the attribute cache
   is flushed and every known agent re-authenticates against the new
   session id. *)
let reconnect (t : t) (m : mount) : (unit, mount_error) result =
  Simnet.close m.m_conn;
  match dial t m.m_path with
  | Error err -> Error err
  | Ok (conn, channel, session_id) ->
      m.m_conn <- conn;
      m.m_channel <- channel;
      m.m_session_id <- session_id;
      m.m_seqno <- 1;
      Hashtbl.reset m.m_authnos;
      m.m_invalidations := [];
      (match m.m_cache with
      | Some cache ->
          Cachefs.invalidate_all cache;
          Obs.incr t.obs "recover.cache_flush"
      | None -> ());
      Obs.incr t.obs "recover.reconnect";
      (* Deterministic order: snapshot and sort by uid (re-running
         authentication mutates m_authnos under our feet otherwise). *)
      let agents =
        Hashtbl.fold (fun uid a acc -> (uid, a) :: acc) m.m_agents []
        |> List.sort (fun (a, _) (b, _) -> compare (a : int) b)
      in
      (* A transport fault mid-authentication means the fresh channel
         is already dead: close it and report the reconnect as failed
         so the caller backs off and dials again.  The close matters —
         leaving a live channel behind with m_authnos empty would let
         the next attempt run silently downgraded to anonymous
         access. *)
      match
        List.iter
          (fun (uid, agent) ->
            Obs.incr t.obs "recover.reauth";
            ignore (authenticate ~local_uid:uid t m agent))
          agents
      with
      | () -> Ok ()
      | exception Simnet.Timeout ->
          Simnet.close m.m_conn;
          Error (Host_unreachable (Pathname.location m.m_path))

(* --- The read-write data path ---

   The NFS 3 calls of the read-write protocol, sealed in the mount's
   channel: the transport [Nfs_client.data_path] builds the serial,
   write-behind and readahead paths over.  Every function reads the
   mount's connection and channel afresh, so a reconnection between
   attempts is transparent. *)

(* Build and seal the Fs_call for one attempt at [xid]: the caller's
   authno, and the attempt's op span context, which rides the wire so
   the server's spans attach to this attempt.  The arguments are
   marshaled straight into the mount's encoder, and the channel seals
   from the encoder's buffer, so the request is never a string of its
   own.  A serial call pays a user-level crossing and its
   full seal; an overlapped one (write-behind, readahead) hides most of
   both behind the pipeline, so only the residual fractions are
   charged. *)
let frame (t : t) (m : mount) ~(xid : int) ~(ctx : Obs.ctx option) ~(cred : Simos.cred)
    ~(overlapped : bool) (call : Nfs_client.call) (args : Xdr.enc -> unit) : string * float * int =
  let authno =
    match Hashtbl.find_opt m.m_authnos cred.Simos.cred_uid with
    | Some a -> a
    | None -> Sfsrw.authno_anonymous
  in
  let trace, span = match ctx with Some cx -> (cx.Obs.cx_trace, cx.Obs.cx_span) | None -> (0, 0) in
  let proc = match call with Nfs_client.Root -> Sfsrw.proc_getroot | Nfs_client.Proc p -> p in
  Xdr.reset m.m_enc;
  Sfsrw.enc_fs_call m.m_enc ~xid ~authno ~proc ~trace ~span args;
  let len = Xdr.length m.m_enc in
  let full = Channel.crypto_cost_us m.m_channel len in
  if overlapped then begin
    Simclock.advance t.clock
      (Costmodel.async_userlevel_factor *. (2.0 *. Costmodel.userlevel_us_per_side));
    let wire = Channel.seal_bytes ~bill:false m.m_channel (Xdr.buffer m.m_enc) ~len in
    let crypto_up = Costmodel.async_crypto_factor *. full in
    Simclock.advance t.clock crypto_up;
    (wire, crypto_up, int_of_float full)
  end
  else begin
    Simclock.advance t.clock Costmodel.userlevel_us_per_side;
    (Channel.seal_bytes m.m_channel (Xdr.buffer m.m_enc) ~len, full, int_of_float full)
  end

(* Open a reply in the channel's frame buffer and hand its NFS results
   to [decode] while the channel lends them; the callback is built once
   per mux.  A reply that proves the channel poisoned (a MAC failure, a
   stream desync, a frame that does not decode) raises [Poisoned]; a
   MAC failure or desync is counted for serial and write-behind replies
   only, since a readahead ticket's failure is the cache's to drop.  A
   protocol error or a stray auth reply raises [Rpc_failure]: the
   channel is fine, the call is not.  Keystream this open consumed from
   the idle-time prefetch already ran during dead wire time; only the
   readahead mux donates idle time, so only it claims. *)
let open_reply (t : t) (m : mount) ~(readahead : bool) (decode : Slice.t -> 'a) :
    request:string -> string -> 'a Nfs_client.opened =
  let opened frame =
    match decode_response m frame with
    | Result.Error e -> raise (Nfs_client.Poisoned ("garbled response: " ^ e))
    | Ok (Sfsrw.Proto_error e) -> raise (Nfs_client.Rpc_failure e)
    | Ok (Sfsrw.Auth_granted _ | Sfsrw.Auth_denied _) ->
        raise (Nfs_client.Rpc_failure "unexpected auth response")
    | Ok (Sfsrw.Fs_reply { results; _ }) ->
        {
          Nfs_client.results = Ok (decode results);
          (* Of the measured server time, the reply seal — attributed
             to the down direction so the analyzer never
             double-counts full-duplex crypto overlap. *)
          crypto_us = Channel.crypto_cost_us m.m_channel (Slice.length frame);
          claim_us = (if readahead then Channel.take_recv_claim m.m_channel else 0.0);
        }
  in
  fun ~request:_ reply ->
    match Channel.open_with m.m_channel reply opened with
    | Ok o -> o
    | Error e ->
        let counter, why =
          match e with
          | `Mac_mismatch -> ("recover.mac_mismatch", "mac mismatch")
          | `Replay -> ("recover.replay", "channel desync")
        in
        if not readahead then Obs.incr t.obs counter;
        raise (Nfs_client.Poisoned why)

(* Any transport or channel failure poisons the ARC4 streams, so
   retransmission on the same channel is useless: every later attempt
   reconnects first and re-seals under the same xid. *)
let transport (t : t) (m : mount) : Nfs_client.transport =
  {
    Nfs_client.conn = (fun () -> m.m_conn);
    proto = Costmodel.Tcp;
    verbatim = false;
    frame = frame t m;
    open_reply = (fun ~readahead decode -> open_reply t m ~readahead decode);
    op_us = Costmodel.pipeline_sfs_op_us;
    precompute = Some (fun ~budget_us -> Channel.precompute m.m_channel ~budget_us);
    before_retry =
      (fun () ->
        match reconnect t m with
        | Ok () -> ()
        | Error (Revoked _ as e) ->
            Obs.incr t.obs "recover.rpc_giveup";
            raise (Nfs_client.Rpc_failure (mount_error_to_string e))
        | Error _ -> (* still down; this attempt fails and backs off again *) ());
    backoff = rpc_backoff;
  }

let mount (t : t) (path : Pathname.t) : (mount, mount_error) result =
  match find_mount t path with
  | Some m -> Ok m
  | None ->
      (* Only the cold path is a span: repeat references are a cheap
         hashtable hit, as in the real automounter. *)
      Obs.incr t.obs "client.automounts";
      Obs.span
        ~args:[ ("path", Pathname.to_string path) ]
        t.obs ~cat:"client" "automount"
        (fun () ->
          match dial t path with
          | Error e -> Error e
          | Ok (conn, channel, session_id) -> (
              let m =
                {
                  m_path = path;
                  m_session_id = session_id;
                  m_channel = channel;
                  m_conn = conn;
                  m_invalidations = ref [];
                  m_cache = None;
                  m_ops = None;
                  m_authnos = Hashtbl.create 4;
                  m_agents = Hashtbl.create 4;
                  m_seqno = 1;
                  m_enc = Xdr.make_enc ();
                  m_readonly = false;
                }
              in
              (* The root handle is fetched in-band, encrypted.
                 Handles are stable across server restarts (Fhcrypt
                 keys derive from the server's key), so the root
                 outlives any reconnection. *)
              match
                Nfs_client.data_path ?obs:t.obs ~window:t.rpc_window ~readahead:t.readahead
                  ~cred:Simos.anonymous_cred t.net (transport t m)
              with
              | exception Nfs_client.Rpc_failure e ->
                  Simnet.close m.m_conn;
                  Error (Negotiation_failed e)
              | ops, pipeline ->
                  let cache =
                    Cachefs.create
                      ~take_invalidations:(fun () ->
                        let inv = !(m.m_invalidations) in
                        m.m_invalidations := [];
                        inv)
                      ?obs:t.obs ?pipeline
                      ~write_behind:(t.rpc_window > 1)
                      ~clock:t.clock ~policy:t.cache_policy ops
                  in
                  m.m_cache <- Some cache;
                  m.m_ops <- Some (Cachefs.ops cache);
                  Hashtbl.replace t.mounts (Pathname.to_name path) m;
                  Ok m))

(* Mount the read-only dialect of a pathname (used for certification
   authorities).  No secure channel: integrity comes from the signed
   root and the hash chain; the transport stays in the clear. *)
let mount_readonly (t : t) (path : Pathname.t) : (mount, mount_error) result =
  let name = Pathname.to_name path ^ ":ro" in
  match Hashtbl.find_opt t.mounts name with
  | Some m -> Ok m
  | None -> (
      let location = Pathname.location path in
      match
        Simnet.connect t.net ~from_host:t.from_host ~addr:location ~port:Server.sfs_port
          ~proto:Costmodel.Tcp
      with
      | exception (Simnet.No_route _ | Simnet.Timeout) -> Error (Host_unreachable location)
      | conn -> (
          let hs = Rpc_mux.of_conn t.net ~proto:Costmodel.Tcp conn in
          let refuse e =
            Simnet.close conn;
            Error e
          in
          (* The connect step still verifies the HostID, but key
             negotiation is skipped for the read-only dialect. *)
          let req =
            {
              Keyneg.version = "sfs-1";
              location;
              hostid = Pathname.hostid path;
              service = Keyneg.Fs_readonly;
              extensions = [];
            }
          in
          match
            Xdr.run (Rpc_mux.call hs (Xdr.encode Keyneg.enc_connect_req req)) Keyneg.dec_connect_res
          with
          | exception Simnet.Timeout -> refuse (Host_unreachable location)
          | Result.Error e | Ok (Keyneg.Connect_error e) -> refuse (Negotiation_failed e)
          | Ok (Keyneg.Connect_revoked { certificate }) ->
              refuse (Revoked (Revocation.cert_for path certificate))
          | Ok (Keyneg.Connect_ok { pubkey })
            when not (Sfs_proto.Hostid.check ~location ~pubkey ~hostid:(Pathname.hostid path)) ->
              refuse (Negotiation_failed "server key does not match HostID")
          | Ok (Keyneg.Connect_ok { pubkey }) -> (
              let exchange bytes =
                Simclock.advance t.clock Costmodel.userlevel_us_per_side;
                Rpc_mux.call hs bytes
              in
              match Readonly.connect ?obs:t.obs ~exchange ~pubkey ~clock:t.clock () with
              | exception Readonly.Verification_failed e -> refuse (Negotiation_failed e)
              | exception Simnet.Timeout -> refuse (Host_unreachable location)
              | ro ->
                  let ops = Readonly.ops ro in
                  let cache = Cachefs.create ?obs:t.obs ~clock:t.clock ~policy:t.cache_policy ops in
                  let m =
                    {
                      m_path = path;
                      m_session_id = "";
                      m_channel =
                        Channel.create ~encrypt:false ~send_key:(String.make 20 '0')
                          ~recv_key:(String.make 20 '0') ();
                      m_conn = conn;
                      m_invalidations = ref [];
                      m_cache = Some cache;
                      m_ops = Some (Cachefs.ops cache);
                      m_authnos = Hashtbl.create 1;
                      m_agents = Hashtbl.create 1;
                      m_seqno = 1;
                      m_enc = Xdr.make_enc ();
                      m_readonly = true;
                    }
                  in
                  Hashtbl.replace t.mounts name m;
                  Ok m)))

let ops (m : mount) : Fs_intf.ops =
  match m.m_ops with Some o -> o | None -> invalid_arg "Client.ops: mount not initialized"

let cache (m : mount) : Cachefs.t =
  match m.m_cache with Some c -> c | None -> invalid_arg "Client.cache: mount not initialized"

(* Invalidation callbacks received on the wire but not yet drained into
   the cache (drains happen on the next cache consult).  The fleet
   reconciliation sums this leftover so server-sent == client-received
   holds exactly at quiesce. *)
let pending_invalidations (m : mount) : int = List.length !(m.m_invalidations)

let unmount (t : t) (m : mount) : unit =
  Hashtbl.remove t.mounts (Pathname.to_name m.m_path ^ if m.m_readonly then ":ro" else "");
  Fun.protect
    ~finally:(fun () -> Simnet.close m.m_conn)
    (fun () -> Option.iter Cachefs.flush_dirty m.m_cache)

(* Adversary-side helper for the attack demo and tests: deliver raw
   bytes on the mount's connection as a network attacker would
   (replay).  Reports whether the server's channel accepted them. *)
let inject_raw (m : mount) (bytes : string) : (string, string) result =
  match Simnet.inject m.m_conn bytes with
  | reply -> Ok reply
  | exception Simnet.Timeout ->
      (* The server's channel rejected the bytes and killed the
         connection — exactly what an attacker's replay should see. *)
      Error "rejected: channel integrity failure, connection dead"
