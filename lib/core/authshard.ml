(* Sharded authserv: a consistent-hash ring over N Authserv instances.

   The paper's authserv is a single per-server daemon; at fleet scale
   one instance validating every signed request for a farm of file
   servers is both a throughput bottleneck and a single point of
   failure.  KeyAuth ("Bringing Public-key Authentication to the
   Masses") motivates the mass-user load: we shard the user database
   by public key over a ring of authserv instances, each file server
   routing every validation to the shard that owns the requesting key.

   Consistent hashing (virtual nodes on a SHA-1 ring) keeps the
   user-to-shard mapping stable as shards are added: only ~1/N of
   users move.  The authmsg carries the user's public key, not a user
   name (the whole point of self-certifying authentication), so the
   ring hashes serialized public keys; management operations that only
   know a user name route by name via the same ring. *)

module Rabin = Sfs_crypto.Rabin
module Sha1 = Sfs_crypto.Sha1
module Authproto = Sfs_proto.Authproto
module Obs = Sfs_obs.Obs

type t = {
  shards : Authserv.t array;
  ring : (int64 * int) array; (* (hash point, shard index), sorted by point *)
  k_validate : string array; (* precomputed per-shard obs counter names *)
  obs : Obs.registry option;
}

(* First 8 bytes of SHA-1, big-endian, compared unsigned: a uniform
   point on the ring. *)
let point (label : string) : int64 =
  let d = Sha1.digest label in
  let v = ref 0L in
  for i = 0 to 7 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code d.[i]))
  done;
  !v

(* Virtual ring points per shard. *)
let vnodes = 32

let create ?obs (shards : Authserv.t array) : t =
  if Array.length shards = 0 then invalid_arg "Authshard.create: no shards";
  let points = ref [] in
  Array.iteri
    (fun i _ ->
      for v = 0 to vnodes - 1 do
        points := (point (Printf.sprintf "shard-%d/vnode-%d" i v), i) :: !points
      done)
    shards;
  let ring = Array.of_list !points in
  Array.sort (fun (a, _) (b, _) -> Int64.unsigned_compare a b) ring;
  let k_validate =
    Array.mapi (fun i _ -> Printf.sprintf "authshard.%d.validate" i) shards
  in
  { shards; ring; k_validate; obs }

let n_shards (t : t) : int = Array.length t.shards
let shard (t : t) (i : int) : Authserv.t = t.shards.(i)

(* Successor point on the ring (binary search, wrapping past the top). *)
let shard_for_hash (t : t) (h : int64) : int =
  let n = Array.length t.ring in
  let lo = ref 0 and hi = ref n in
  (* Invariant: every index < !lo has point < h; every index >= !hi has
     point >= h.  After the loop !lo is the first point >= h, or n. *)
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let p, _ = t.ring.(mid) in
    if Int64.unsigned_compare p h < 0 then lo := mid + 1 else hi := mid
  done;
  let idx = if !lo = n then 0 else !lo in
  snd t.ring.(idx)

(* The shard owning a public key, or a user name (failure logging has
   no key in hand). *)
let shard_for_key (t : t) (pub : Rabin.pub) : int =
  shard_for_hash t (point (Rabin.pub_to_string pub))

let shard_for_user (t : t) (user : string) : int = shard_for_hash t (point ("user/" ^ user))

(* Register a user (and their key) on the shard that owns the key, so
   later validations routed by pubkey land where the record lives. *)
let add_user_key (t : t) ~(user : string) ~(cred : Sfs_os.Simos.cred) (pub : Rabin.pub) : int =
  let i = shard_for_key t pub in
  Authserv.add_user t.shards.(i) ~user ~cred;
  (match Authserv.register_pubkey t.shards.(i) ~user pub with
  | Ok () -> ()
  | Error e -> invalid_arg ("Authshard.add_user_key: " ^ e));
  i

(* The Authserv.backend a file server plugs in: routes each signed
   request to the shard owning its public key.  An unparsable authmsg
   deterministically goes to shard 0, which rejects it with the same
   error a lone authserv would. *)
let backend (t : t) : Authserv.backend =
  {
    Authserv.b_validate =
      (fun ~authmsg ~authid ~seqno ->
        let i =
          match Authproto.authmsg_of_string authmsg with
          | Some msg -> shard_for_key t msg.Authproto.user_pub
          | None -> 0
        in
        Obs.incr t.obs t.k_validate.(i);
        Authserv.validate t.shards.(i) ~authmsg ~authid ~seqno);
    Authserv.b_log_failure =
      (fun ~user ~reason -> Authserv.log_failure t.shards.(shard_for_user t user) ~user reason);
  }
