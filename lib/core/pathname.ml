(* Self-certifying pathnames (paper section 2.2, Figure 1).

   Every SFS file system is accessible under

       /sfs/Location:HostID/path/on/remote/server

   Location is a DNS name or IP address; HostID is the base-32 SHA-1
   binding Location to the server's public key.  Parsing is the entire
   "key distribution" interface of SFS: a user who can name a file can
   authenticate its server. *)

module Hostid = Sfs_proto.Hostid
module Rabin = Sfs_crypto.Rabin

let sfs_root = "/sfs"

type t = { location : string; hostid : string (* 20 raw bytes *) }

let v ~(location : string) ~(hostid : string) : t =
  if String.length hostid <> Hostid.size then invalid_arg "Pathname.v: hostid must be 20 bytes";
  if location = "" || String.contains location '/' || String.contains location ':' then
    invalid_arg "Pathname.v: bad location";
  { location; hostid }

let of_server ~(location : string) ~(pubkey : Rabin.pub) : t =
  v ~location ~hostid:(Hostid.of_location_key ~location ~pubkey)

let location (t : t) = t.location
let hostid (t : t) = t.hostid

(* The directory-entry name under /sfs: "Location:HostID". *)
let to_name (t : t) : string = t.location ^ ":" ^ Hostid.to_base32 t.hostid

let to_string (t : t) : string = sfs_root ^ "/" ^ to_name t

let of_name (name : string) : t option =
  match String.rindex_opt name ':' with
  | None -> None
  | Some i ->
      let location = String.sub name 0 i in
      let b32 = String.sub name (i + 1) (String.length name - i - 1) in
      if location = "" || String.contains location '/' || String.contains location ':' then None
      else
        Option.map (fun hostid -> { location; hostid }) (Hostid.of_base32 b32)

let of_string (s : string) : (t * string list) option =
  (* Parses "/sfs/Location:HostID[/rest...]", returning the remainder
     components. *)
  let prefix = sfs_root ^ "/" in
  let plen = String.length prefix in
  if String.length s <= plen || String.sub s 0 plen <> prefix then None
  else begin
    let rest = String.sub s plen (String.length s - plen) in
    match String.split_on_char '/' rest with
    | name :: components -> (
        match of_name name with
        | Some t -> Some (t, List.filter (fun c -> c <> "") components)
        | None -> None)
    | [] -> None
  end

let equal (a : t) (b : t) =
  a.location = b.location && Sfs_util.Bytesutil.ct_equal a.hostid b.hostid
