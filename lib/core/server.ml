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

let sfs_port = 4

type t = {
  net : Simnet.t;
  clock : Simclock.t;
  rng : Prng.t;
  location : string;
  key : Rabin.priv;
  path : Pathname.t;
  backend : Fs_intf.ops;
  leases : Lease.t;
  fhc : Fhcrypt.t;
  authserv : Authserv.t; (* the local instance (serves the SRP service) *)
  auth : Authserv.backend; (* validation route: local instance or a shard ring *)
  allow_anonymous : bool; (* section 2.5: servers may refuse anonymous access *)
  mutable readonly : Readonly.snapshot option;
  mutable revocation : Revocation.t option; (* served on connect when set *)
  mutable connections : int;
  mutable fs_calls : int;
  (* Duplicate request cache for the read-write protocol, keyed by
     (client host, xid) so it survives session teardown: a client that
     reconnects after a lost reply re-issues the same xid, and the
     stored reply is replayed instead of re-executing a non-idempotent
     procedure.  (In real SFS the loopback NFS server's cache plays
     this role; here the relay serves the backend directly.)  Each
     entry holds the procedure, the arguments and the marshaled reply
     plaintext — the very string that was sealed.  Bounded, FIFO
     eviction, volatile across crash_recover. *)
  drc : (string * int, int * string * string) Hashtbl.t;
  drc_order : (string * int) Queue.t;
  obs : Obs.registry option;
}

(* Bound on the duplicate request cache. *)
let drc_size = 512

let ( let* ) = Result.bind

(* --- The per-connection secure ops wrapper ---

   Translates between wire handles (Blowfish-encrypted, public) and
   backend handles, stamps leases into attributes, registers lease
   grants for this connection and queues invalidations to others. *)

let secure_ops (t : t) ~(conn : int) : Fs_intf.ops =
  let b = t.backend in
  let enc h = Fhcrypt.encrypt t.fhc h in
  let dec h =
    match Fhcrypt.decrypt t.fhc h with Some inner -> Ok inner | None -> Error NFS3ERR_BADHANDLE
  in
  let stamp (a : fattr) : fattr = { a with lease = Lease.lease_s } in
  let grant wire_fh = Lease.grant t.leases ~conn wire_fh in
  let mutate wire_fh = Lease.invalidate t.leases ~by:conn wire_fh in
  let attr_out wire_fh a =
    grant wire_fh;
    stamp a
  in
  {
    Fs_intf.fs_root = enc b.Fs_intf.fs_root;
    fs_getattr =
      (fun cred h ->
        let* ih = dec h in
        let* a = b.Fs_intf.fs_getattr cred ih in
        Ok (attr_out h a));
    fs_setattr =
      (fun cred h s ->
        let* ih = dec h in
        let* a = b.Fs_intf.fs_setattr cred ih s in
        mutate h;
        Ok (attr_out h a));
    fs_lookup =
      (fun cred ~dir name ->
        let* idir = dec dir in
        let* ih, a = b.Fs_intf.fs_lookup cred ~dir:idir name in
        let wh = enc ih in
        Ok (wh, attr_out wh a));
    fs_access =
      (fun cred h want ->
        let* ih = dec h in
        b.Fs_intf.fs_access cred ih want);
    fs_readlink =
      (fun cred h ->
        let* ih = dec h in
        b.Fs_intf.fs_readlink cred ih);
    fs_read =
      (fun cred h ~off ~count ->
        let* ih = dec h in
        let* data, eof, a = b.Fs_intf.fs_read cred ih ~off ~count in
        Ok (data, eof, attr_out h a));
    fs_write =
      (fun cred h ~off ~stable data ->
        let* ih = dec h in
        let* a = b.Fs_intf.fs_write cred ih ~off ~stable data in
        mutate h;
        Ok (attr_out h a));
    fs_create =
      (fun cred ~dir name ~mode ->
        let* idir = dec dir in
        let* ih, a = b.Fs_intf.fs_create cred ~dir:idir name ~mode in
        mutate dir;
        let wh = enc ih in
        Ok (wh, attr_out wh a));
    fs_mkdir =
      (fun cred ~dir name ~mode ->
        let* idir = dec dir in
        let* ih, a = b.Fs_intf.fs_mkdir cred ~dir:idir name ~mode in
        mutate dir;
        let wh = enc ih in
        Ok (wh, attr_out wh a));
    fs_symlink =
      (fun cred ~dir name ~target ->
        let* idir = dec dir in
        let* ih, a = b.Fs_intf.fs_symlink cred ~dir:idir name ~target in
        mutate dir;
        let wh = enc ih in
        Ok (wh, attr_out wh a));
    fs_remove =
      (fun cred ~dir name ->
        let* idir = dec dir in
        let* () = b.Fs_intf.fs_remove cred ~dir:idir name in
        mutate dir;
        Ok ());
    fs_rmdir =
      (fun cred ~dir name ->
        let* idir = dec dir in
        let* () = b.Fs_intf.fs_rmdir cred ~dir:idir name in
        mutate dir;
        Ok ());
    fs_rename =
      (fun cred ~from_dir ~from_name ~to_dir ~to_name ->
        let* ifd = dec from_dir in
        let* itd = dec to_dir in
        let* () = b.Fs_intf.fs_rename cred ~from_dir:ifd ~from_name ~to_dir:itd ~to_name in
        mutate from_dir;
        mutate to_dir;
        Ok ());
    fs_link =
      (fun cred ~target ~dir name ->
        let* it = dec target in
        let* idir = dec dir in
        let* a = b.Fs_intf.fs_link cred ~target:it ~dir:idir name in
        mutate dir;
        mutate target;
        Ok (attr_out target a));
    fs_readdir =
      (fun cred h ->
        let* ih = dec h in
        let* entries = b.Fs_intf.fs_readdir cred ih in
        grant h;
        Ok
          (List.map
             (fun de ->
               let wh = enc de.d_fh in
               { de with d_fh = wh; d_attr = attr_out wh de.d_attr })
             entries));
    fs_commit =
      (fun cred h ->
        let* ih = dec h in
        b.Fs_intf.fs_commit cred ih);
    fs_fsstat =
      (fun cred h ->
        let* ih = dec h in
        b.Fs_intf.fs_fsstat cred ih);
  }

(* --- The Fs service connection --- *)

type fs_session = {
  channel : Channel.t;
  enc : Xdr.enc; (* every reply is marshaled here, then copied out once *)
  conn_id : int;
  peer : string; (* client host; keys the duplicate request cache *)
  dispatcher : Nfs_server.t;
  authnos : (int, string * Simos.cred) Hashtbl.t; (* authno -> user, cred *)
  window : Authproto.seq_window;
  mutable next_authno : int;
  session_id : string;
}

(* Run one file system call, marshaling its reply into [s.enc]: the
   NFS results are written in place inside the Fs_reply, never built
   as a string of their own. *)
let execute_fs_call (t : t) (s : fs_session) ~(authno : int) ~(proc : int) (args : string) : unit =
  t.fs_calls <- t.fs_calls + 1;
  (* The paper's user-level server implementation cost.  Unstable
     writes ride the write-behind pipeline, whose residual cost the
     client already charged for both ends. *)
  let unstable_write =
    proc = Sfs_nfs.Nfs_proto.proc_write
    &&
    match Xdr.run args Sfs_nfs.Nfs_proto.dec_write_stable with
    | Ok stable -> not stable
    | Result.Error _ -> false
  in
  if not unstable_write then Simclock.advance t.clock Costmodel.userlevel_us_per_side;
  let cred =
    if authno = Sfsrw.authno_anonymous then Simos.anonymous_cred
    else match Hashtbl.find_opt s.authnos authno with Some (_, c) -> c | None -> Simos.anonymous_cred
  in
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
  else if not (Sfsrw.enc_fs_reply e (Nfs_server.dispatch_into s.dispatcher cred proc args) take)
  then begin
    Xdr.reset e;
    Sfsrw.enc_response e (Sfsrw.Proto_error "bad procedure or arguments")
  end

(* One request to its marshaled reply plaintext. *)
let handle_fs_request (t : t) (s : fs_session) (req : Sfsrw.request) : string =
  match req with
  | Sfsrw.Auth_req { seqno; authmsg } -> (
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
      Sfsrw.response_to_string
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
          (* A hit requires the same procedure and byte-identical arguments
             — only a true retransmission replays (the authno may legally
             differ: re-authentication after a reconnect renumbers it). *)
          let key = (s.peer, xid) in
          match Hashtbl.find_opt t.drc key with
          | Some (p0, a0, reply) when p0 = proc && String.equal a0 args -> (* sfslint: allow SL001 — duplicate-request-cache argument compare, nothing secret *)
              Obs.incr t.obs "recover.retransmit_hit";
              (* Instantaneous marker: the replay shows up in the trace
                 attached to the retransmitting op. *)
              Obs.span t.obs ~cat:"server" "drc_hit" (fun () -> ());
              reply
          | previous ->
              execute_fs_call t s ~authno ~proc args;
              (* The one copy of the reply: DRC entry and seal input. *)
              let reply = Xdr.to_string s.enc in
              Hashtbl.replace t.drc key (proc, args, reply);
              if previous = None then begin
                Obs.incr t.obs "server.drc_insert";
                Queue.push key t.drc_order;
                if Queue.length t.drc_order > drc_size then begin
                  Obs.incr t.obs "server.drc_evict";
                  Hashtbl.remove t.drc (Queue.pop t.drc_order)
                end
              end;
              reply)

let fs_connection ?(encrypt = true) ~(peer : string) (t : t) : string -> string =
  (* Connection state machine: connect -> keyneg -> channel traffic.
     The "no-encrypt" dialect extension (the paper's measurement
     configuration "SFS w/o encryption") drops the ARC4 pass but keeps
     the MAC framing. *)
  let state = ref `Expect_keyneg in
  fun bytes ->
    match !state with
    | `Expect_keyneg -> (
        match Keyneg.server_negotiate ~rng:t.rng ~server_key:t.key bytes with
        | Result.Error e -> Xdr.encode Keyneg.enc_connect_res (Keyneg.Connect_error e)
        | Ok (keys, response) ->
            let conn_id = Lease.register_conn t.leases in
            let channel =
              Channel.create ~encrypt ~clock:t.clock ?obs:t.obs ~label:"server"
                ~send_key:keys.Keyneg.ksc ~recv_key:keys.Keyneg.kcs ()
            in
            let dispatcher =
              Nfs_server.create ~fh_prefix:"" ?obs:t.obs (secure_ops t ~conn:conn_id)
            in
            state :=
              `Established
                {
                  channel;
                  enc = Xdr.make_enc ();
                  conn_id;
                  peer;
                  dispatcher;
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
        match Channel.open_ s.channel bytes with
        | Error e ->
            Obs.incr t.obs
              (match e with
              | `Mac_mismatch -> "recover.server_mac_mismatch"
              | `Replay -> "recover.server_replay");
            Lease.drop_conn t.leases s.conn_id;
            state := `Dead;
            raise Simnet.Timeout
        | Ok plaintext ->
            let reply =
              match Sfsrw.request_of_string plaintext with
              | Ok req -> handle_fs_request t s req
              | Result.Error e -> Sfsrw.response_to_string (Sfsrw.Proto_error e)
            in
            Channel.seal s.channel reply)
    | `Dead -> raise Simnet.Timeout

(* --- The connection dispatcher (sfssd proper) --- *)

let connection (t : t) ~(peer : string) : string -> string =
  t.connections <- t.connections + 1;
  Obs.incr t.obs "server.connections";
  let sub = ref None in
  fun bytes ->
    match !sub with
    | Some handler -> handler bytes
    | None -> (
        (* First message must be a connect request naming the service. *)
        match Xdr.run bytes Keyneg.dec_connect_req with
        | Result.Error e -> Xdr.encode Keyneg.enc_connect_res (Keyneg.Connect_error e)
        | Ok req -> (
            match t.revocation with
            | Some cert ->
                Xdr.encode Keyneg.enc_connect_res
                  (Keyneg.Connect_revoked { certificate = Revocation.to_string cert })
            | None ->
                if req.Keyneg.location <> t.location then
                  Xdr.encode Keyneg.enc_connect_res
                    (Keyneg.Connect_error "wrong location")
                else begin
                  (match req.Keyneg.service with
                  | Keyneg.Fs ->
                      let encrypt = not (List.mem "no-encrypt" req.Keyneg.extensions) in
                      sub := Some (fs_connection ~encrypt ~peer t)
                  | Keyneg.Auth ->
                      sub :=
                        Some
                          (Authserv.srp_connection t.authserv
                             ~self_cert_path:(Pathname.to_string t.path))
                  | Keyneg.Fs_readonly -> (
                      match t.readonly with
                      | Some snap -> sub := Some (Readonly.handle_request snap)
                      | None -> ()));
                  match (req.Keyneg.service, t.readonly) with
                  | Keyneg.Fs_readonly, None ->
                      Xdr.encode Keyneg.enc_connect_res
                        (Keyneg.Connect_error "read-only dialect not served here")
                  | _ ->
                      Xdr.encode Keyneg.enc_connect_res (Keyneg.Connect_ok { pubkey = t.key.Rabin.pub })
                end))

let create ?(allow_anonymous = true) ?auth_backend
    ?obs (net : Simnet.t) ~(host : Simnet.host) ~(location : string) ~(key : Rabin.priv)
    ~(rng : Prng.t) ~(backend : Fs_intf.ops) ~(authserv : Authserv.t) () : t =
  let clock = Simnet.clock net in
  let auth =
    match auth_backend with Some b -> b | None -> Authserv.backend authserv
  in
  let t =
    {
      net;
      clock;
      rng;
      location;
      key;
      path = Pathname.of_server ~location ~pubkey:key.Rabin.pub;
      backend;
      leases = Lease.create ?obs clock;
      fhc = Fhcrypt.of_prng rng;
      authserv;
      auth;
      allow_anonymous;
      readonly = None;
      revocation = None;
      connections = 0;
      fs_calls = 0;
      drc = Hashtbl.create 64;
      drc_order = Queue.create ();
      obs;
    }
  in
  Simnet.listen net host ~port:sfs_port (fun ~peer -> connection t ~peer);
  t

(* A simulated crash/restart: every piece of volatile per-connection
   state — lease holders, callback queues, channel sessions — is gone.
   Sessions die on their own (the restarted process does not know their
   cipher streams, so their next frame fails and the client
   reconnects); the lease registry must be reset explicitly.  The fault
   injector's restart hook calls this (see Stacks.arm_faults). *)
let crash_recover (t : t) : unit =
  Lease.reset t.leases;
  Hashtbl.reset t.drc;
  Queue.clear t.drc_order;
  Obs.incr t.obs "recover.server_restart"

let self_path (t : t) : Pathname.t = t.path
let fs_calls (t : t) : int = t.fs_calls
let invalidations_sent (t : t) : int = Lease.invalidations_sent t.leases
let drc_entries (t : t) : int = Hashtbl.length t.drc
let leases (t : t) : Lease.t = t.leases

let serve_readonly (t : t) (snap : Readonly.snapshot) : unit = t.readonly <- Some snap

(* Revoke this server's own pathname: subsequent connections receive
   the self-authenticating certificate instead of service. *)
let revoke (t : t) : Revocation.t =
  let cert = Revocation.make ~key:t.key ~location:t.location Revocation.Revoke in
  t.revocation <- Some cert;
  cert

let forwarding_pointer (t : t) ~(new_path : Pathname.t) : Revocation.t =
  Revocation.make ~key:t.key ~location:t.location (Revocation.Forward new_path)
