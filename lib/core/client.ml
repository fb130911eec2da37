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

(* One connection to sfssd and everything it carries; a reconnection
   swaps in a fresh one whole. *)
type session = {
  conn : Simnet.conn;
  exchange : string -> string; (* the dial's handshake mux *)
  channel : Channel.t;
  session_id : string;
  mutable seqno : int; (* the next authentication sequence number *)
  authnos : (int, int) Hashtbl.t; (* uid -> authno *)
  mutable invalidations : fh list; (* banked callbacks, not yet drained *)
}

(* When the secure channel desyncs (MAC failure, server restart, dead
   TCP connection) the client swaps in a fresh session, keeping the
   mount — and every [Fs_intf.ops] closure handed out — valid. *)
type mount = {
  m_path : Pathname.t;
  mutable m_session : session;
  mutable m_cache : Cachefs.t option; (* None only during mount setup *)
  mutable m_ops : Fs_intf.ops option; (* cache-wrapped, what users consume *)
  m_agents : (int, Agent.t) Hashtbl.t; (* uid -> agent, for re-authentication *)
  m_enc : Xdr.enc; (* every Fs_call is marshaled here, then sealed *)
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
          let s = m.m_session in
          s.invalidations <- s.invalidations @ invalidations
      | Sfsrw.Auth_granted _ | Sfsrw.Auth_denied _ | Sfsrw.Proto_error _ -> ());
      Ok r

(* --- Mounting --- *)

(* The one dial of the read-write mount, every reconnection and the
   read-only mount, then [session] over the connection, its handshake
   exchange and the served key.  Any failure closes the connection; a
   refused dial, a crash window or a lost message is [Host_unreachable]. *)
let dial (t : t) (path : Pathname.t) ~(service : Keyneg.service)
    (session : Simnet.conn -> (string -> string) -> Rabin.pub -> ('a, mount_error) result) :
    ('a, mount_error) result =
  let location = Pathname.location path in
  let extensions = if service = Keyneg.Fs && not t.encrypt then [ "no-encrypt" ] else [] in
  match
    Keyneg.dial t.net ~from_host:t.from_host ~location ~hostid:(Pathname.hostid path) ~service
      ~extensions
  with
  | Error Keyneg.Unreachable -> Error (Host_unreachable location)
  | Error (Keyneg.Refused e) -> Error (Negotiation_failed e)
  | Error (Keyneg.Revoked cert) -> Error (Revoked (Revocation.cert_for path cert))
  | Ok (conn, exchange, server_pub) -> (
      match session conn exchange server_pub with
      | Ok _ as ok -> ok
      | Error _ as e ->
          Simnet.close conn;
          e
      | exception Simnet.Timeout ->
          Simnet.close conn;
          Error (Host_unreachable location))

(* A read-write session: K_C, drawn before the dial whatever the server
   answers, then the key-halves exchange and the secure channel over its
   keys. *)
let dial_fs (t : t) (path : Pathname.t) : (session, mount_error) result =
  let temp_key = temp_key t in
  dial t path ~service:Keyneg.Fs (fun conn exchange server_pub ->
      match Keyneg.negotiate ~rng:t.rng ~temp_key ~server_pub exchange with
      | Error e -> Error (Negotiation_failed e)
      | Ok keys ->
          let channel =
            Channel.create ~encrypt:t.encrypt ~clock:t.clock ?obs:t.obs
              ~label:"client" ~send_key:keys.Keyneg.kcs ~recv_key:keys.Keyneg.ksc ()
          in
          Ok
            { conn; exchange; channel; session_id = keys.Keyneg.session_id; seqno = 1;
              authnos = Hashtbl.create 4; invalidations = [] })

(* --- User authentication (Figure 4, client and agent side) --- *)

(* Figure 4 for local user [uid] on the current session, no recovery. *)
let authenticate_session (t : t) (m : mount) ~(uid : int) (agent : Agent.t) : int =
  let s = m.m_session in
  match Hashtbl.find_opt s.authnos uid with
  | Some authno -> authno
  | None ->
      Obs.incr t.obs "client.auth_attempts";
      Obs.span t.obs ~cat:"client" "authenticate" (fun () ->
          let info =
            {
              Authproto.service = "FS";
              location = Pathname.location m.m_path;
              hostid = Pathname.hostid m.m_path;
              session_id = s.session_id;
            }
          in
          let base = s.seqno in
          let msgs = Agent.sign_requests agent info ~seqno_of:(fun i -> base + i) in
          s.seqno <- base + List.length msgs;
          (* Only an explicit denial means "no": anything else — a
             timeout, a MAC failure, a garbled reply — is a transport
             fault on a now-poisoned channel, and silently degrading
             to anonymous access would be wrong (the server would
             apply the anonymous credential to every later call).
             Propagate as Timeout; [authenticate] retries the whole
             authentication over a fresh session. *)
          let try_one i msg =
            let req =
              Sfsrw.Auth_req { seqno = base + i; authmsg = Authproto.authmsg_to_string msg }
            in
            let reply = s.exchange (Channel.seal s.channel (Sfsrw.request_to_string req)) in
            let granted frame =
              match decode_response m frame with
              | Ok (Sfsrw.Auth_granted { authno; seqno }) when seqno = base + i -> Some authno
              | Ok (Sfsrw.Auth_denied _) -> None
              | Ok (Sfsrw.Auth_granted _ | Sfsrw.Fs_reply _ | Sfsrw.Proto_error _) | Error _ ->
                  raise Simnet.Timeout
            in
            match Channel.open_with s.channel reply granted with
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
          Hashtbl.replace s.authnos uid authno;
          authno)

(* --- Recovery --- *)

(* Close the mount's session and swap in a freshly negotiated one.
   Volatile server state (leases, authnos) died with the old session,
   so the attribute cache is flushed and every known agent
   re-authenticates against the new session id. *)
let reconnect (t : t) (m : mount) : (unit, mount_error) result =
  Simnet.close m.m_session.conn;
  match dial_fs t m.m_path with
  | Error err -> Error err
  | Ok session ->
      m.m_session <- session;
      (match m.m_cache with
      | Some cache ->
          Cachefs.invalidate_all cache;
          Obs.incr t.obs "recover.cache_flush"
      | None -> ());
      Obs.incr t.obs "recover.reconnect";
      (* Deterministic order: snapshot and sort by uid (re-running
         authentication mutates m_agents under our feet otherwise). *)
      let agents =
        Hashtbl.fold (fun uid a acc -> (uid, a) :: acc) m.m_agents []
        |> List.sort (fun (a, _) (b, _) -> compare (a : int) b)
      in
      (* A transport fault mid-authentication means the fresh channel
         is already dead: close it and report the reconnect as failed
         so the caller backs off and dials again.  The close matters —
         leaving a live channel behind with no authnos would let
         the next attempt run silently downgraded to anonymous
         access. *)
      match
        List.iter
          (fun (uid, agent) ->
            Obs.incr t.obs "recover.reauth";
            ignore (authenticate_session t m ~uid agent))
          agents
      with
      | () -> Ok ()
      | exception Simnet.Timeout ->
          Simnet.close session.conn;
          Error (Host_unreachable (Pathname.location m.m_path))

(* Before every attempt after the first: any failure poisons the ARC4
   streams, so reconnect.  A revoked server ends the call. *)
let before_retry (t : t) (m : mount) : unit =
  match reconnect t m with
  | Ok () -> ()
  | Error (Revoked _ as e) ->
      Obs.incr t.obs "recover.rpc_giveup";
      raise (Nfs_client.Rpc_failure (mount_error_to_string e))
  | Error _ -> (* still down; this attempt fails and backs off again *) ()

(* Every /sfs access calls this, so a known user costs one lookup.  A
   timed-out authentication, or a reconnect whose re-authentication
   failed, leaves the session dead: retry as a data call does ([reconnect]
   re-authenticates every known agent, this one included).  [local_uid]
   is the uid the agent answers for: its user's, or root's under ssu. *)
let authenticate ?local_uid (t : t) (m : mount) (agent : Agent.t) : int =
  let uid = Option.value local_uid ~default:(Agent.user agent).Simos.uid in
  Hashtbl.replace m.m_agents uid agent;
  match Hashtbl.find_opt m.m_session.authnos uid with
  | Some authno -> authno
  | None ->
      Nfs_client.with_backoff ?obs:t.obs ~clock:t.clock rpc_backoff (fun again ->
          if again then before_retry t m;
          match authenticate_session t m ~uid agent with
          | authno -> Ok authno
          | exception Simnet.Timeout -> Error "timeout")

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
   own.  Every call pays the client's user-level crossing and its
   full seal on the caller's clock; the mux decides what overlaps. *)
let frame (t : t) (m : mount) ~(xid : int) ~(ctx : Obs.ctx option) ~(cred : Simos.cred)
    (call : Nfs_client.call) (args : Xdr.enc -> unit) : string * float =
  let { authnos; channel; _ } = m.m_session in
  let authno =
    match Hashtbl.find_opt authnos cred.Simos.cred_uid with
    | Some a -> a
    | None -> Sfsrw.authno_anonymous
  in
  let trace, span = match ctx with Some cx -> (cx.Obs.cx_trace, cx.Obs.cx_span) | None -> (0, 0) in
  let proc = match call with Nfs_client.Root -> Sfsrw.proc_getroot | Nfs_client.Proc p -> p in
  Xdr.reset m.m_enc;
  Sfsrw.enc_fs_call m.m_enc ~xid ~authno ~proc ~trace ~span args;
  let len = Xdr.length m.m_enc in
  Simclock.advance t.clock Costmodel.userlevel_us_per_side;
  (Channel.seal_bytes channel (Xdr.buffer m.m_enc) ~len, Channel.crypto_cost_us channel len)

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
          crypto_us = Channel.crypto_cost_us m.m_session.channel (Slice.length frame);
          claim_us = (if readahead then Channel.take_recv_claim m.m_session.channel else 0.0);
        }
  in
  fun ~request:_ reply ->
    match Channel.open_with m.m_session.channel reply opened with
    | Ok o -> o
    | Error e ->
        let counter, why =
          match e with
          | `Mac_mismatch -> ("recover.mac_mismatch", "mac mismatch")
          | `Replay -> ("recover.replay", "channel desync")
        in
        if not readahead then Obs.incr t.obs counter;
        raise (Nfs_client.Poisoned why)

(* Every attempt after the first reconnects ([before_retry]) and
   re-seals under the same xid. *)
let transport (t : t) (m : mount) : Nfs_client.transport =
  {
    Nfs_client.conn = (fun () -> m.m_session.conn);
    proto = Costmodel.Tcp;
    verbatim = false;
    frame = frame t m;
    open_reply = (fun ~readahead decode -> open_reply t m ~readahead decode);
    op_us = Costmodel.pipeline_sfs_op_us;
    precompute = Some (fun ~budget_us -> Channel.precompute m.m_session.channel ~budget_us);
    before_retry = (fun () -> before_retry t m);
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
          match dial_fs t path with
          | Error e -> Error e
          | Ok session -> (
              let m =
                { m_path = path; m_session = session; m_cache = None; m_ops = None;
                  m_agents = Hashtbl.create 4; m_enc = Xdr.make_enc () }
              in
              (* The root handle is fetched in-band, encrypted.
                 Handles are stable across server restarts (Fhcrypt
                 keys derive from the server's key), so the root
                 outlives any reconnection. *)
              match
                Nfs_client.data_path ?obs:t.obs ~window:t.rpc_window
                  ~readahead:t.readahead ~cred:Simos.anonymous_cred t.net (transport t m)
              with
              | exception Nfs_client.Rpc_failure e ->
                  Simnet.close m.m_session.conn;
                  Error (Negotiation_failed e)
              | ops, pipeline ->
                  let cache =
                    Cachefs.create
                      ~take_invalidations:(fun () ->
                        let s = m.m_session in
                        let inv = s.invalidations in
                        s.invalidations <- [];
                        inv)
                      ?obs:t.obs ?pipeline
                      ~write_behind:(t.rpc_window > 1)
                      ~clock:t.clock ~policy:t.cache_policy ops
                  in
                  m.m_cache <- Some cache;
                  m.m_ops <- Some (Cachefs.ops cache);
                  Hashtbl.replace t.mounts (Pathname.to_name path) m;
                  Ok m))

(* The read-only mount: the connect step verifies the HostID, the signed
   root and hash chain everything after it; no channel, no mount record. *)
let mount_readonly (t : t) (path : Pathname.t) : (Fs_intf.ops, mount_error) result =
  dial t path ~service:Keyneg.Fs_readonly (fun _conn exchange pubkey ->
      match Readonly.connect ?obs:t.obs ~exchange ~pubkey ~clock:t.clock () with
      | exception Readonly.Verification_failed e -> Error (Negotiation_failed e)
      | ro ->
          let cache =
            Cachefs.create ?obs:t.obs ~clock:t.clock ~policy:t.cache_policy (Readonly.ops ro)
          in
          Ok (Cachefs.ops cache))

let ops (m : mount) : Fs_intf.ops =
  match m.m_ops with Some o -> o | None -> invalid_arg "Client.ops: mount not initialized"

let cache (m : mount) : Cachefs.t =
  match m.m_cache with Some c -> c | None -> invalid_arg "Client.cache: mount not initialized"

(* Invalidation callbacks received on the wire but not yet drained into
   the cache (drains happen on the next cache consult).  The fleet
   reconciliation sums this leftover so server-sent == client-received
   holds exactly at quiesce. *)
let pending_invalidations (m : mount) : int = List.length m.m_session.invalidations

let unmount (t : t) (m : mount) : unit =
  Hashtbl.remove t.mounts (Pathname.to_name m.m_path);
  Fun.protect
    ~finally:(fun () -> Simnet.close m.m_session.conn)
    (fun () -> Option.iter Cachefs.flush_dirty m.m_cache)

(* Adversary-side helper for the attack demo and tests: deliver raw
   bytes on the mount's connection as a network attacker would
   (replay).  Reports whether the server's channel accepted them. *)
let inject_raw (m : mount) (bytes : string) : (string, string) result =
  match Simnet.inject m.m_session.conn bytes with
  | reply -> Ok reply
  | exception Simnet.Timeout ->
      (* The server's channel rejected the bytes and killed the
         connection — exactly what an attacker's replay should see. *)
      Error "rejected: channel integrity failure, connection dead"
