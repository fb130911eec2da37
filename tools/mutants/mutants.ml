(* The mutant catalogue: one-line breaks of the checks the paper's
   security rests on, each paired with the test that must fail when the
   check is gone.  A check no test notices missing is not yet evidence
   that the code performs it.

   Each mutant keeps the checked call and discards its verdict
   ([ignore (check ...); false]), so the tree still compiles without an
   unused-value warning and only the behaviour changes.  `make mutants`
   applies each entry to a copy of the tree and runs the suite there
   (main.ml); tier-1 checks only that every [old_text] still occurs
   exactly once in its file, so the catalogue cannot rot as the code
   moves. *)

type entry = {
  name : string;
  file : string;  (** relative to the repository root *)
  old_text : string;  (** occurs exactly once in [file] *)
  new_text : string;
  claim : string;  (** the paper's claim the check stands for *)
  killer : string;  (** the test that must fail, as "<suite> <test name>" *)
}

let catalogue =
  [
    {
      name = "authserv-validate-skip";
      file = "lib/core/authserv.ml";
      old_text = "if not (Authproto.validate_authmsg msg ~authid ~seqno) then";
      new_text = "if (ignore (Authproto.validate_authmsg msg ~authid ~seqno); false) then";
      claim =
        "Fig. 4: authserv maps a request to a user only if the AuthMsg is signed by that user's \
         key over this session's AuthID and sequence number";
      killer = "core spliced authmsg denied";
    };
    {
      name = "server-window-skip";
      file = "lib/core/server.ml";
      old_text = "if not (Authproto.window_accept s.window seqno) then";
      new_text = "if (ignore (Authproto.window_accept s.window seqno); false) then";
      claim = "Fig. 4, footnote 4: the server rejects a replayed or stale sequence number";
      killer = "core server denies a replayed auth request";
    };
    {
      name = "drc-args";
      file = "lib/core/server.ml";
      old_text = "&& String.equal e.d_args args";
      new_text = "&& (ignore (String.equal e.d_args args); true)";
      claim =
        "section 3.3: a duplicate request cache hit replays only a retransmission of the same call";
      killer = "core drc: a reused xid with other args runs";
    };
    {
      name = "drc-cred";
      file = "lib/core/server.ml";
      old_text = "&& e.d_cred = cred ->";
      new_text = "&& (ignore (e.d_cred = cred); true) ->";
      claim =
        "Fig. 4: the server runs each request as the user whose agent authenticated it, also when \
         it answers from its duplicate request cache";
      killer = "core drc: a reused xid as another user runs";
    };
    {
      name = "xid-per-connection";
      file = "lib/net/simnet.ml";
      old_text = "xid = host_xids t from_host;";
      new_text = "xid = (ignore (host_xids t from_host); ref 0);";
      claim =
        "section 3.3: one sfscd per machine relays every local user's calls, so the machine \
         numbers its RPCs once and no two calls of its clients meet in a server's duplicate \
         request cache";
      killer = "integration drc: twin clients, two lookups";
    };
    {
      name = "authserv-key-compare";
      file = "lib/core/authserv.ml";
      old_text = "when Rabin.pub_equal pk pubkey ->";
      new_text = "when (ignore (Rabin.pub_equal pk pubkey); true) ->";
      claim =
        "section 2.5: authserv maps a public key to the credentials of the user who registered \
         that key, and an unregistered key to none";
      killer = "core authserv refuses an unregistered key";
    };
    {
      name = "srp-direction-keys";
      file = "lib/core/authserv.ml";
      old_text = "| To_server -> \"SRP-CS\"";
      new_text = "| To_server -> \"SRP-SC\"";
      claim =
        "section 2.4: what SRP seals from the server cannot be sent back as the client's own \
         sealed registration";
      killer = "core srp reflected payload refused";
    };
    {
      name = "ro-root-signature";
      file = "lib/core/readonly.ml";
      old_text = "if not (Ro.verify_fsinfo c.pubkey fsinfo ~signature) then";
      new_text = "if (ignore (Ro.verify_fsinfo c.pubkey fsinfo ~signature); false) then";
      claim =
        "section 2.4: a read-only client accepts a snapshot root only under the signature of the \
         key its self-certifying pathname names";
      killer = "replica root signed by another key refused";
    };
    {
      name = "ro-validity-window";
      file = "lib/core/readonly.ml";
      old_text = "if now > fsinfo.Ro.issued_s + fsinfo.Ro.duration_s then";
      new_text = "if (ignore (now > fsinfo.Ro.issued_s + fsinfo.Ro.duration_s); false) then";
      claim =
        "section 3.2: a signed root is stamped with a validity window, and a client refuses it \
         once the window has passed";
      killer = "replica root past its validity window refused";
    };
    {
      name = "ro-rollback";
      file = "lib/core/readonly.ml";
      old_text = "if fsinfo.Ro.serial < min_serial then";
      new_text = "if (ignore (fsinfo.Ro.serial < min_serial); false) then";
      claim =
        "section 3.2: a client never goes back to an older snapshot than one it already verified, \
         even when the older root is validly signed and still inside its window";
      killer = "replica refresh skip + rollback refusal";
    };
    {
      name = "ro-root-skip";
      file = "lib/core/readonly.ml";
      old_text = "let skipped = Sfs_util.Bytesutil.ct_equal raw c.root_frame in";
      new_text = "let skipped = (ignore (Sfs_util.Bytesutil.ct_equal raw c.root_frame); true) in";
      claim =
        "section 2.4: a client skips the signature check only for a root reply byte-identical to \
         one it already verified; a new root is verified";
      killer = "replica refresh skip + rollback refusal";
    };
    {
      name = "ro-object-hash";
      file = "lib/core/readonly.ml";
      old_text = "if not (Sfs_util.Bytesutil.ct_equal digest h) then begin";
      new_text = "if (ignore (Sfs_util.Bytesutil.ct_equal digest h); false) then begin";
      claim =
        "sections 2.4, 3.2: a client accepts an object only if it hashes to the hash that named \
         it, so an untrusted replica can refuse to serve but never lie";
      killer = "replica substituted object refused";
    };
    {
      name = "ro-dir-structure";
      file = "lib/proto/readonly_proto.ml";
      old_text = "if not (dir_valid dir) then Xdr.error \"malformed directory\";";
      new_text = "if (ignore (dir_valid dir); false) then Xdr.error \"malformed directory\";";
      claim =
        "sections 2.4, 3.2: a client accepts a directory only if its entries are well formed, \
         also when a hash the publisher signed names it, so every later lookup reads inside \
         verified bytes";
      killer = "replica malformed directory refused";
    };
    {
      name = "client-hostid-check";
      file = "lib/proto/keyneg.ml";
      old_text = "not (Hostid.check ~location ~pubkey ~hostid)";
      new_text = "(ignore (Hostid.check ~location ~pubkey ~hostid); false)";
      claim =
        "section 2.1, 3.1.1: the client accepts a server key only if it hashes to the HostID in \
         the self-certifying pathname";
      killer = "proto keyneg MITM rejected";
    };
    {
      name = "respond-revocation-skip";
      file = "lib/proto/keyneg.ml";
      old_text = "match revoked () with";
      new_text = "match (ignore (revoked ()); None) with";
      claim =
        "section 2.4: a server whose key is revoked answers every connect step with the \
         self-authenticating revocation certificate instead of its key, so no client reaches the \
         fenced HostID";
      killer = "core server revocation";
    };
    {
      name = "respond-location-check";
      file = "lib/proto/keyneg.ml";
      old_text = "| None when req.location <> location ->";
      new_text = "| None when (ignore (req.location <> location); false) ->";
      claim =
        "section 2.2, 3.1.1: a server answers the connect step only for the Location its HostID \
         binds to its key, also when it is a key-free mirror";
      killer = "replica mirror refuses services, locations";
    };
    {
      name = "channel-mac-verify";
      file = "lib/proto/channel.ml";
      old_text =
        "if not (Mac.verify_into t.recv_half.mac buf ~off:0 ~len:(4 + len) ~tag_off:(4 + len))";
      new_text =
        "if (ignore (Mac.verify_into t.recv_half.mac buf ~off:0 ~len:(4 + len) ~tag_off:(4 + \
         len)); false)";
      claim =
        "section 3.1.3: the secure channel accepts a message only under its MAC, so ciphertext an \
         attacker altered is refused";
      killer = "proto channel tamper";
    };
    {
      name = "channel-length-replay";
      file = "lib/proto/channel.ml";
      old_text = "if len < 0 || len <> wire_len - 4 - Mac.mac_size then";
      new_text = "if (ignore (len < 0 || len <> wire_len - 4 - Mac.mac_size); false) then";
      claim =
        "section 3.1.3: a replayed, dropped or reordered message desynchronizes the ARC4 stream, \
         and the channel refuses the garbled length word it decrypts to";
      killer = "proto channel replay";
    };
    {
      name = "fhcrypt-redundancy";
      file = "lib/core/fhcrypt.ml";
      old_text =
        "if Sfs_util.Bytesutil.ct_equal_sub t.tag t.blk ~off:0 ~len:redundancy_bytes then";
      new_text =
        "if (ignore (Sfs_util.Bytesutil.ct_equal_sub t.tag t.blk ~off:0 \
         ~len:redundancy_bytes); true) then";
      claim =
        "section 3.3: the server accepts a file handle only if its redundancy checks out, so a \
         client cannot forge a handle to a file it was never given";
      killer = "core file handle crypto";
    };
    {
      name = "rabin-oaep-label";
      file = "lib/crypto/rabin.ml";
      old_text =
        "if not (Sfs_util.Bytesutil.ct_equal_sub label b ~off:(1 + hash_len) ~len:hash_len) then None";
      new_text =
        "if (ignore (Sfs_util.Bytesutil.ct_equal_sub label b ~off:(1 + hash_len) ~len:hash_len); \
         false) then None";
      claim =
        "section 3.1.3: Rabin decryption accepts a plaintext only under OAEP's redundancy, the \
         label hash included, so a ciphertext an attacker built without the label is refused \
         (the plaintext-aware, chosen-ciphertext-secure scheme the paper cites)";
      killer = "crypto rabin oaep label";
    };
    {
      name = "keyneg-derive-server-half";
      file = "lib/proto/keyneg.ml";
      old_text = "    Xdr.enc_fixed_opaque e ~size:half_bytes server_half;";
      new_text = "    ignore server_half;";
      claim =
        "section 3.1.2: each session key hashes both parties' key halves, so neither party alone \
         chooses the keys that protect the session";
      killer = "crypto connect-step known answers";
    };
  ]

let read_file (path : string) : string = In_channel.with_open_bin path In_channel.input_all

(* Non-overlapping occurrences of [sub] in [s]. *)
let occurrences ~(sub : string) (s : string) : int =
  let n = String.length sub and len = String.length s in
  let rec go i acc =
    if n = 0 || i + n > len then acc
    else if String.sub s i n = sub then go (i + n) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

(* [s] with its one occurrence of [e.old_text] replaced. *)
let apply (e : entry) (s : string) : string =
  let n = String.length e.old_text in
  let rec find i =
    if i + n > String.length s then invalid_arg ("Mutants.apply: " ^ e.name ^ ": old text not found")
    else if String.sub s i n = e.old_text then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub s 0 i ^ e.new_text ^ String.sub s (i + n) (String.length s - i - n)

(* Drop ANSI colour sequences from a log line. *)
let strip_ansi (s : string) : string =
  let b = Buffer.create (String.length s) in
  let rec go i =
    if i < String.length s then
      if s.[i] = '\027' then
        let j = ref (i + 1) in
        while !j < String.length s && not (Char.equal s.[!j] 'm') do incr j done;
        go (!j + 1)
      else begin
        Buffer.add_char b s.[i];
        go (i + 1)
      end
  in
  go 0;
  Buffer.contents b

(* "<suite> <test name>" for each test alcotest reports failed, once,
   in order.  A failure is reported on several lines, prefixed ("> ")
   or boxed ("│"), and a line may cut a long name short ("..."), so
   reports are matched by suite and index and the longest name kept. *)
let failed_tests (log : string) : string list =
  let rec after_fail = function [] -> [] | "[FAIL]" :: rest -> rest | _ :: rest -> after_fail rest in
  let rec strip_dots name =
    if String.ends_with ~suffix:"." name then strip_dots (String.sub name 0 (String.length name - 1))
    else name
  in
  String.split_on_char '\n' log
  |> List.filter_map (fun line ->
         let words = String.split_on_char ' ' (strip_ansi line) in
         match after_fail (List.filter (fun w -> w <> "" && w <> "\u{2502}") words) with
         | suite :: index :: name -> Some ((suite, index), strip_dots (String.concat " " name))
         | _ -> None)
  |> List.fold_left
       (fun acc (key, name) ->
         match List.assoc_opt key acc with
         | Some seen when String.length seen >= String.length name -> acc
         | Some _ -> List.map (fun (k, n) -> if k = key then (k, name) else (k, n)) acc
         | None -> acc @ [ (key, name) ])
       []
  |> List.map (fun ((suite, _), name) -> suite ^ " " ^ name)
