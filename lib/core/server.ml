(* sfssd — the SFS server (paper sections 3, 3.2, 3.3).

   Listens on the SFS port, answers connection requests with its public
   key (or a revocation certificate), runs key negotiation, and then
   serves the requested service over the connection:

   - Fs: the read-write protocol inside the secure channel, relayed to
     an NFS backend with encrypted file handles, per-attribute leases
     and invalidation callbacks, requests tagged by authentication
     numbers that authserv mapped from user public keys;
   - Auth: the authserver's SRP service (sfskey's peer);
   - Fs_readonly: the signed-snapshot dialect, served without touching
     any private key.

   One server master can hand different services and dialects to
   different subordinate handlers — the modularity section 3.2
   describes; here each service is a closure. *)

open Sfs_nfs.Nfs_types
module Fs_intf = Sfs_nfs.Fs_intf
module Nfs_server = Sfs_nfs.Nfs_server
module Drc = Sfs_nfs.Drc
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
module Lease = Sfs_proto.Lease
module Xdr = Sfs_xdr.Xdr
module Obs = Sfs_obs.Obs

(* A duplicate-request-cache entry: the procedure, the arguments, the
   credentials the call ran under, and the marshaled reply plaintext,
   the first [d_len] bytes of [d_reply] — the very bytes that were
   sealed.  An entry owns its buffer alone; [d_reply] is set once, to
   the evicted entry's buffer or a new one. *)
type drc_entry = {
  d_proc : int;
  d_args : string;
  d_cred : Simos.cred;
  mutable d_reply : Bytes.t;
  d_len : int;
}

type t = {
  clock : Simclock.t;
  rng : Prng.t;
  location : string;
  server_key : Rabin.priv;
  path : Pathname.t;
  backend : Fs_intf.ops;
  leases : Lease.t;
  fhc : Fhcrypt.t;
  authserv : Authserv.t; (* the local instance (serves the SRP service) *)
  auth : Authserv.backend; (* validation route: local instance or a shard ring *)
  allow_anonymous : bool; (* section 2.5: servers may refuse anonymous access *)
  mutable readonly : Readonly.store option; (* the snapshot Fs_readonly serves *)
  mutable revocation : Revocation.t option; (* served on connect when set *)
  (* Duplicate request cache for the read-write protocol, keyed by
     (client host, xid) so it survives session teardown: a client that
     reconnects after a lost reply re-issues the same xid, and the
     stored reply is replayed instead of re-executing a non-idempotent
     procedure.  (In real SFS the loopback NFS server's cache plays
     this role; here the relay serves the backend directly.)  Every
     procedure is cached, reads included: a reply carries the lease
     invalidations taken for it, which a re-execution would lose.
     Volatile across crash_recover. *)
  drc : (string * int, drc_entry) Drc.t;
  obs : Obs.registry option;
}

(* Bound on the duplicate request cache. *)
let drc_size = 512

(* Replies longer than this are copied into the buffer of the entry
   their insert evicts, when it is big enough.  2 KB is the largest
   object OCaml's minor heap takes: a larger buffer goes straight to
   the major heap, so reusing it saves a major allocation, while
   recycling small buffers only keeps them alive longer. *)
let drc_recycle_min = 2048

(* A connection's wire handles are Blowfish-encrypted backend handles,
   public but unforgeable.  Every attribute served carries a lease
   granted to the connection; a mutation queues invalidations to the
   other holders. *)
let handles (t : t) ~(conn : int) : Nfs_server.handles =
  let grant wire_fh = Lease.grant t.leases ~conn wire_fh in
  {
    Nfs_server.export = Fhcrypt.encrypt t.fhc;
    import = Fhcrypt.decrypt t.fhc;
    attr =
      (fun wire_fh a ->
        grant wire_fh;
        { a with lease = Lease.lease_s });
    grant;
    changed = Lease.invalidate t.leases ~by:conn;
  }

(* --- The Fs service connection --- *)

type fs_session = {
  channel : Channel.t;
  enc : Xdr.enc; (* every reply is marshaled here; the seal reads it in place *)
  conn_id : int;
  peer : string; (* client host; keys the duplicate request cache *)
  dispatcher : Nfs_server.t;
  authnos : (int, string * Simos.cred) Hashtbl.t; (* authno -> user, cred *)
  window : Authproto.seq_window;
  mutable next_authno : int;
  session_id : string;
}

(* The credentials an authno stands for in this session; an unknown
   authno is anonymous. *)
let cred_of (s : fs_session) (authno : int) : Simos.cred =
  if authno = Sfsrw.authno_anonymous then Simos.anonymous_cred
  else match Hashtbl.find_opt s.authnos authno with Some (_, c) -> c | None -> Simos.anonymous_cred

(* Run one file system call as [cred], marshaling its reply into
   [s.enc]: the NFS results are written in place inside the Fs_reply,
   never built as a string of their own. *)
let execute_fs_call (t : t) (s : fs_session) ~(cred : Simos.cred) ~(proc : int) (args : string) :
    unit =
  (* The paper's user-level server implementation cost, for every call. *)
  Simclock.advance t.clock Costmodel.userlevel_us_per_side;
  let e = s.enc in
  let take () = Lease.take t.leases s.conn_id in
  Xdr.reset e;
  if Simos.is_anonymous cred && not t.allow_anonymous && proc <> Sfsrw.proc_getroot then
    (* "Depending on the server's configuration, this may permit
       access to certain parts of the file system" — here, none. *)
    ignore
      (Sfsrw.enc_fs_reply e
         (fun e ->
           Sfs_nfs.Nfs_types.enc_status e Sfs_nfs.Nfs_types.NFS3ERR_ACCES;
           true)
         take)
  else if proc = Sfsrw.proc_getroot then
    ignore
      (Sfsrw.enc_fs_reply e
         (fun e ->
           enc_fh e (Fhcrypt.encrypt t.fhc t.backend.Fs_intf.fs_root);
           true)
         (fun () -> []))
  else
    let dispatched e = Nfs_server.dispatch_into s.dispatcher cred proc args e = Nfs_server.Done in
    if not (Sfsrw.enc_fs_reply e dispatched take) then begin
      Xdr.reset e;
      Sfsrw.enc_response e (Sfsrw.Proto_error "bad procedure or arguments")
    end

(* Record the reply in [s.enc] under [key] and return the entry.  A
   long reply takes over the buffer of the entry its insert evicts, when
   that is big enough; otherwise it gets an exact-size copy. *)
let drc_insert (t : t) (s : fs_session) (key : string * int) ~(proc : int) ~(args : string)
    ~(cred : Simos.cred) : drc_entry =
  let len = Xdr.length s.enc in
  let e = { d_proc = proc; d_args = args; d_cred = cred; d_reply = Bytes.empty; d_len = len } in
  (e.d_reply <-
     match Drc.admit t.drc key e with
     | Some old when len > drc_recycle_min && Bytes.length old.d_reply >= len -> old.d_reply
     | Some _ | None -> Bytes.create len (* sfslint: allow SL013 — a short reply, or no evicted buffer big enough: the entry's own exact-size copy *));
  Bytes.blit (Xdr.buffer s.enc) 0 e.d_reply 0 len;
  e

(* A reply plaintext: a file system call's lives in its DRC entry; an
   authentication or protocol-error reply is a string of its own. *)
type reply = Cached of drc_entry | Message of string

let handle_fs_request (t : t) (s : fs_session) (req : Sfsrw.request) : reply =
  match req with
  | Sfsrw.Auth_req { seqno; authmsg } ->
      (* Figure 4, server side: check the AuthID names this session,
         the seqno is fresh, and authserv vouches for the signature. *)
      let authid =
        Authproto.authid_of
          {
            Authproto.service = "FS";
            location = t.location;
            hostid = Pathname.hostid t.path;
            session_id = s.session_id;
          }
      in
      Message
        (Sfsrw.response_to_string
           (if not (Authproto.window_accept s.window seqno) then
              Sfsrw.Auth_denied { seqno; reason = "replayed or stale sequence number" }
            else
              match t.auth.Authserv.b_validate ~authmsg ~authid ~seqno with
              | Error reason ->
                  t.auth.Authserv.b_log_failure ~user:"?" ~reason;
                  Sfsrw.Auth_denied { seqno; reason }
              | Ok (user, cred) ->
                  let authno = s.next_authno in
                  s.next_authno <- authno + 1;
                  Hashtbl.replace s.authnos authno (user, cred);
                  Sfsrw.Auth_granted { authno; seqno }))
  | Sfsrw.Fs_call { xid; authno; proc; trace; span; args } ->
      (* Adopt the client's causal context for the extent of the call:
         every span recorded below (DRC hit, NFS proc execution, lease
         work) becomes a remote child of the op that sent it. *)
      let ctx =
        if trace > 0 then Some { Obs.cx_trace = trace; cx_span = span } else None
      in
      Obs.with_ctx t.obs ctx (fun () ->
          (* A hit requires the same procedure, byte-identical
             arguments and equal credentials — only a true
             retransmission by the same user replays.  The authno may
             legally differ (re-authentication after a reconnect
             renumbers it), so it is compared by what it resolves to. *)
          let key = (s.peer, xid) in
          let cred = cred_of s authno in
          match Drc.find t.drc key with
          | Some e
            when e.d_proc = proc
                 && String.equal e.d_args args (* sfslint: allow SL001 — duplicate-request-cache argument compare, nothing secret *)
                 && e.d_cred = cred ->
              Obs.incr t.obs "recover.retransmit_hit";
              (* Instantaneous marker: the replay shows up in the trace
                 attached to the retransmitting op. *)
              Obs.span t.obs ~cat:"server" "drc_hit" (fun () -> ());
              Cached e
          | _ ->
              execute_fs_call t s ~cred ~proc args;
              Cached (drc_insert t s key ~proc ~args ~cred))

let fs_connection ?(encrypt = true) ~(peer : string) (t : t) : string -> string =
  (* Connection state machine: connect -> keyneg -> channel traffic.
     The "no-encrypt" dialect extension (the paper's measurement
     configuration "SFS w/o encryption") drops the ARC4 pass but keeps
     the MAC framing. *)
  let state = ref `Expect_keyneg in
  fun bytes ->
    match !state with
    | `Expect_keyneg -> (
        match Keyneg.server_negotiate ~rng:t.rng ~server_key:t.server_key bytes with
        | Result.Error e -> Xdr.encode Keyneg.enc_connect_res (Keyneg.Connect_error e)
        | Ok (keys, response) ->
            let conn_id = Lease.register_conn t.leases in
            let channel =
              Channel.create ~encrypt ~clock:t.clock ?obs:t.obs ~label:"server"
                ~send_key:keys.Keyneg.ksc ~recv_key:keys.Keyneg.kcs ()
            in
            state :=
              `Established
                {
                  channel;
                  enc = Xdr.make_enc ();
                  conn_id;
                  peer;
                  dispatcher = Nfs_server.create ~handles:(handles t ~conn:conn_id) ?obs:t.obs t.backend;
                  authnos = Hashtbl.create 8;
                  window = Authproto.make_window ();
                  next_authno = 1;
                  session_id = keys.Keyneg.session_id;
                };
            response)
    | `Established s -> (
        (* Integrity failures tear the connection down: stream cipher
           state is unrecoverable, so the session goes dead, its leases
           are dropped, and the exchange fails like a vanished peer —
           the client's recovery path reconnects and renegotiates. *)
        match Channel.open_with s.channel bytes Sfsrw.request_of_slice with
        | Error e ->
            Obs.incr t.obs
              (match e with
              | `Mac_mismatch -> "recover.server_mac_mismatch"
              | `Replay -> "recover.server_replay");
            Lease.drop_conn t.leases s.conn_id;
            state := `Dead;
            raise Simnet.Timeout
        | Ok decoded ->
            let reply =
              match decoded with
              | Ok req -> handle_fs_request t s req
              | Result.Error e -> Message (Sfsrw.response_to_string (Sfsrw.Proto_error e))
            in
            (* A cached reply is sealed straight from its entry's
               bytes: no plaintext copy is made for the seal. *)
            match reply with
            | Cached e -> Channel.seal_bytes s.channel e.d_reply ~len:e.d_len
            | Message m -> Channel.seal s.channel m)
    | `Dead -> raise Simnet.Timeout

(* --- The connection dispatcher (sfssd proper) --- *)

(* sfssd's handler for the service a connect request names. *)
let service (t : t) ~(peer : string) (req : Keyneg.connect_req) :
    (string -> string, string) result =
  match req.Keyneg.service with
  | Keyneg.Fs ->
      let encrypt = not (List.mem "no-encrypt" req.Keyneg.extensions) in
      Ok (fs_connection ~encrypt ~peer t)
  | Keyneg.Auth ->
      Ok (Authserv.srp_connection t.authserv ~self_cert_path:(Pathname.to_string t.path))
  | Keyneg.Fs_readonly -> (
      match t.readonly with
      | Some st -> Ok (Readonly.serve st)
      | None -> Error "read-only dialect not served here")

let connection (t : t) ~(peer : string) : string -> string =
  Obs.incr t.obs "server.connections";
  Keyneg.respond ~location:t.location ~pubkey:t.server_key.Rabin.pub
    ~revoked:(fun () -> Option.map Revocation.to_string t.revocation)
    (service t ~peer)

let create ?(allow_anonymous = true) ?auth_backend
    ?obs (net : Simnet.t) ~(host : Simnet.host) ~(location : string) ~(key : Rabin.priv)
    ~(rng : Prng.t) ~(backend : Fs_intf.ops) ~(authserv : Authserv.t) () : t =
  let clock = Simnet.clock net in
  let auth =
    match auth_backend with Some b -> b | None -> Authserv.backend authserv
  in
  let t =
    {
      clock;
      rng;
      location;
      server_key = key;
      path = Pathname.of_server ~location ~pubkey:key.Rabin.pub;
      backend;
      leases = Lease.create ?obs clock;
      fhc = Fhcrypt.of_prng rng;
      authserv;
      auth;
      allow_anonymous;
      readonly = None;
      revocation = None;
      drc = Drc.create ?obs ~bound:drc_size ~counters:"server" ();
      obs;
    }
  in
  Simnet.listen net host ~port:Keyneg.sfs_port (fun ~peer -> connection t ~peer);
  t

(* A simulated crash/restart: every piece of volatile per-connection
   state — lease holders, callback queues, channel sessions — is gone.
   Sessions die on their own (the restarted process does not know their
   cipher streams, so their next frame fails and the client
   reconnects); the lease registry must be reset explicitly.  The fault
   injector's restart hook calls this (see Stacks.arm_faults). *)
let crash_recover (t : t) : unit =
  Lease.reset t.leases;
  Drc.clear t.drc;
  Obs.incr t.obs "recover.server_restart"

let self_path (t : t) : Pathname.t = t.path
let drc_entries (t : t) : int = Drc.length t.drc
let leases (t : t) : Lease.t = t.leases

let serve_readonly (t : t) (snap : Readonly.snapshot) : unit =
  t.readonly <- Some (Readonly.store ?obs:t.obs ~clock:t.clock snap)

(* Revoke this server's own pathname: subsequent connections receive
   the self-authenticating certificate instead of service. *)
let revoke (t : t) : Revocation.t =
  let cert = Revocation.make ~key:t.server_key ~location:t.location Revocation.Revoke in
  t.revocation <- Some cert;
  cert

let forwarding_pointer (t : t) ~(new_path : Pathname.t) : Revocation.t =
  Revocation.make ~key:t.server_key ~location:t.location (Revocation.Forward new_path)
