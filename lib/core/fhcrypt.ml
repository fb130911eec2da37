(* NFS file handle protection (paper section 3.3).

   "NFS identifies files by server-chosen, opaque file handles ...
   these file handles must remain secret; an attacker who learns the
   file handle of even a single directory can access any part of the
   file system as any user.  SFS servers, in contrast, make their file
   handles publicly available to anonymous clients.  SFS therefore
   generates its file handles by adding redundancy to NFS handles and
   encrypting them in CBC mode with a 20-byte Blowfish key."

   An SFS wire handle is Blowfish-CBC(redundancy ∥ inner handle),
   padded to whole blocks with a length byte.  Decryption rejects any
   handle whose redundancy does not check out, so handles cannot be
   guessed or forged even though they are public. *)

module Blowfish = Sfs_crypto.Blowfish
module Mac = Sfs_crypto.Mac

(* [mac] is the redundancy HMAC schedule, keyed once per instance; [blk]
   is the scratch block both directions run CBC over in place, and
   [tag] receives the HMAC whose first 8 bytes are the redundancy. *)
type t = { cipher : Blowfish.t; mac : Mac.schedule; blk : Bytes.t; tag : Bytes.t }

let redundancy_bytes = 8
let max_inner = 40

(* redundancy ∥ length byte ∥ inner, zero-padded to whole blocks *)
let wire_len (n : int) : int = (redundancy_bytes + 1 + n + 7) land lnot 7

let of_prng (rng : Sfs_crypto.Prng.t) : t =
  let key = Sfs_crypto.Prng.random_bytes rng 20 in
  {
    cipher = Blowfish.create key;
    mac = Mac.schedule ~key:(Sfs_crypto.Sha1.digest ("fh-redundancy:" ^ key));
    blk = Bytes.create (wire_len max_inner);
    tag = Bytes.create Mac.mac_size;
  }

let zero_iv = String.make 8 '\000'

(* HMAC of the [n]-byte inner handle that sits after the length byte. *)
let mac_inner (t : t) (n : int) : unit =
  Mac.mac_into t.mac t.blk ~off:(redundancy_bytes + 1) ~len:n ~dst:t.tag ~dst_off:0

let encrypt (t : t) (inner : string) : string =
  let n = String.length inner in
  if n > max_inner then invalid_arg "Fhcrypt.encrypt: inner handle too large";
  let total = wire_len n in
  Bytes.set t.blk redundancy_bytes (Char.chr n);
  Bytes.blit_string inner 0 t.blk (redundancy_bytes + 1) n;
  Bytes.fill t.blk (redundancy_bytes + 1 + n) (total - redundancy_bytes - 1 - n) '\000';
  mac_inner t n;
  Bytes.blit t.tag 0 t.blk 0 redundancy_bytes;
  Blowfish.encrypt_cbc_into t.cipher ~iv:zero_iv t.blk ~off:0 ~len:total;
  Bytes.sub_string t.blk 0 total

(* Only the exact length [encrypt] produces for the inner length the
   handle claims is accepted: no trailing blocks, nothing over-long. *)
let decrypt (t : t) (wire : string) : string option =
  let w = String.length wire in
  if w < 16 || w > Bytes.length t.blk || w mod 8 <> 0 then None
  else begin
    Bytes.blit_string wire 0 t.blk 0 w;
    Blowfish.decrypt_cbc_into t.cipher ~iv:zero_iv t.blk ~off:0 ~len:w;
    let n = Char.code (Bytes.get t.blk redundancy_bytes) in
    if wire_len n <> w then None
    else begin
      mac_inner t n;
      if Sfs_util.Bytesutil.ct_equal_sub t.tag t.blk ~off:0 ~len:redundancy_bytes then
        Some (Bytes.sub_string t.blk (redundancy_bytes + 1) n)
      else None
    end
  end
