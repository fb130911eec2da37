(* HostIDs (paper section 2.2).

   A HostID cryptographically names a (Location, PublicKey) pair:

       HostID = SHA-1("HostInfo", Location, PublicKey,
                      "HostInfo", Location, PublicKey)

   The input is deliberately fed to SHA-1 twice: any collision of the
   duplicated-input hash is also a collision of plain SHA-1, so the
   duplication cannot hurt and might help if SHA-1 weakens (paper
   footnote 1).  The 20-byte output renders as 32 base-32 characters. *)

module Sha1 = Sfs_crypto.Sha1
module Rabin = Sfs_crypto.Rabin
module Xdr = Sfs_xdr.Xdr

let size = Sha1.digest_size

(* The hashed bytes are the XDR marshaling of the two fields, repeated:
   the one encoding is fed to the hash twice where it lies. *)
let of_location_key ~(location : string) ~(pubkey : Rabin.pub) : string =
  let e = Xdr.make_enc () in
  Xdr.enc_string e "HostInfo";
  Xdr.enc_string e location;
  Xdr.enc_opaque e (Rabin.pub_to_string pubkey);
  let h = Sha1.init () in
  for _ = 1 to 2 do
    Sha1.feed_bytes h (Xdr.buffer e) ~off:0 ~len:(Xdr.length e)
  done;
  Sha1.final h

let to_base32 (hostid : string) : string = Sfs_util.Base32.encode hostid

let of_base32 (s : string) : string option =
  if String.length s <> 32 then None
  else
    match Sfs_util.Base32.decode s with
    | hostid when String.length hostid = size -> Some hostid
    | _ -> None
    | exception Invalid_argument _ -> None

let check ~(location : string) ~(pubkey : Rabin.pub) ~(hostid : string) : bool =
  Sfs_util.Bytesutil.ct_equal (of_location_key ~location ~pubkey) hostid
