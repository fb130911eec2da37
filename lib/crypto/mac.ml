(* SHA-1-based message authentication.

   The paper (section 3.1.3) MACs the length and plaintext of each RPC
   message under a 32-byte key pulled from the ARC4 stream.  We use
   HMAC-SHA-1 (Bellare-Canetti-Krawczyk) as the SHA-1-based MAC; the
   paper notes the exact MAC construction is an implementation artifact
   that "could be swapped out ... without affecting the main claims".

   Two shapes of the same function.  The one-shot entry points
   ([hmac], [of_message], [verify]) key two fresh contexts and run the
   message straight through them.  A [schedule] is the reusable form
   for a long-lived key holder: its inner and outer contexts are
   compressed over key xor ipad/opad once per key (the channel re-keys
   them in place for every message, Fhcrypt once per server), each MAC
   runs in a work context cloned from them, and one scratch block holds
   the pad while keying and the inner digest while MACing — so a MAC
   allocates nothing. *)

let block_size = 64
let mac_size = Sha1.digest_size

type schedule = { inner : Sha1.ctx; outer : Sha1.ctx; work : Sha1.ctx; scratch : Bytes.t }

(* Compress key xor ipad into [inner] and key xor opad into [outer],
   building the pad block in place in [pad] (0x36 lxor 0x5c = 0x6a
   flips one into the other).  [len <= block_size]. *)
let load_key (inner : Sha1.ctx) (outer : Sha1.ctx) (pad : Bytes.t) (key : Bytes.t) ~(off : int)
    ~(len : int) : unit =
  Bytes.fill pad 0 block_size '\x36';
  for i = 0 to len - 1 do
    Bytes.set pad i (Char.chr (Char.code (Bytes.get key (off + i)) lxor 0x36))
  done;
  Sha1.reset inner;
  Sha1.feed_bytes inner pad ~off:0 ~len:block_size;
  for i = 0 to block_size - 1 do
    Bytes.set pad i (Char.chr (Char.code (Bytes.get pad i) lxor 0x6a))
  done;
  Sha1.reset outer;
  Sha1.feed_bytes outer pad ~off:0 ~len:block_size

(* HMAC keys longer than a block are hashed first.  The key bytes are
   only read, so the unsafe view is sound. *)
let key_bytes (key : string) : Bytes.t =
  Bytes.unsafe_of_string (if String.length key > block_size then Sha1.digest key else key)

let schedule ~(key : string) : schedule =
  let s =
    { inner = Sha1.init (); outer = Sha1.init (); work = Sha1.init (); scratch = Bytes.create block_size }
  in
  let k = key_bytes key in
  load_key s.inner s.outer s.scratch k ~off:0 ~len:(Bytes.length k);
  s

let rekey (s : schedule) (key : Bytes.t) ~(off : int) ~(len : int) : unit =
  if off < 0 || len < 0 || len > block_size || off + len > Bytes.length key then
    invalid_arg "Mac.rekey";
  load_key s.inner s.outer s.scratch key ~off ~len

(* MAC [len] bytes of [buf] at [off] in the work context, writing the
   tag at [dst_off]: inner pass, its digest into scratch, outer pass. *)
let run (s : schedule) (buf : Bytes.t) ~(off : int) ~(len : int) ~(dst : Bytes.t) ~(dst_off : int)
    : unit =
  Sha1.copy_into s.inner ~dst:s.work;
  Sha1.feed_bytes s.work buf ~off ~len;
  Sha1.digest_into s.work s.scratch ~off:0;
  Sha1.copy_into s.outer ~dst:s.work;
  Sha1.feed_bytes s.work s.scratch ~off:0 ~len:mac_size;
  Sha1.digest_into s.work dst ~off:dst_off

(* The single-buffer channel path: for a frame whose first 4 + n bytes
   are the big-endian length and the plaintext, this is exactly
   [of_message] with no copies. *)
let mac_into (s : schedule) (buf : Bytes.t) ~(off : int) ~(len : int) ~(dst : Bytes.t)
    ~(dst_off : int) : unit =
  if dst_off < 0 || dst_off + mac_size > Bytes.length dst then invalid_arg "Mac.mac_into";
  run s buf ~off ~len ~dst ~dst_off

(* Recompute into scratch and compare in constant time against the
   tag stored in the frame itself. *)
let verify_into (s : schedule) (buf : Bytes.t) ~(off : int) ~(len : int) ~(tag_off : int) : bool =
  if tag_off < 0 || tag_off + mac_size > Bytes.length buf then invalid_arg "Mac.verify_into";
  run s buf ~off ~len ~dst:s.scratch ~dst_off:0;
  Sfs_util.Bytesutil.ct_equal_sub s.scratch buf ~off:tag_off ~len:mac_size

(* One-shot HMAC: two fresh contexts keyed and run through once, no
   schedule and no clones. *)
let one_shot ~(key : string) (feed : Sha1.ctx -> unit) : string =
  let pad = Bytes.create block_size in
  let inner = Sha1.init () and outer = Sha1.init () in
  let k = key_bytes key in
  load_key inner outer pad k ~off:0 ~len:(Bytes.length k);
  feed inner;
  Sha1.digest_into inner pad ~off:0;
  Sha1.feed_bytes outer pad ~off:0 ~len:mac_size;
  Sha1.final outer

let hmac ~(key : string) (message : string) : string = one_shot ~key (fun c -> Sha1.update c message)

(* The SFS traffic MAC covers the message length then the bytes, so a
   truncation cannot slide one message's tail into the next. *)
let of_message ~(key : string) (message : string) : string =
  one_shot ~key (fun c ->
      Sha1.update c (Sfs_util.Bytesutil.be32_of_int (String.length message));
      Sha1.update c message)

let verify ~(key : string) ~(tag : string) (message : string) : bool =
  Sfs_util.Bytesutil.ct_equal tag (of_message ~key message)
