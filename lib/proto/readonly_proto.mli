(** Wire format of the public read-only dialect (paper sections 2.4,
    3.2): content-hashed objects, a signed root with a validity window
    and a rollback-stopping serial, the two-procedure fetch protocol,
    and the publisher→mirror fan-out procedures.  Serving needs no
    private key; clients verify everything. *)

module Rabin = Sfs_crypto.Rabin
module Xdr = Sfs_xdr.Xdr
module Slice = Sfs_util.Slice

type entry_kind = K_file | K_dir | K_symlink
type entry = { e_name : string; e_kind : entry_kind; e_hash : string }

type obj =
  | O_file of string
  | O_dir of entry list (** children by content hash *)
  | O_symlink of string

val enc_obj : Xdr.enc -> obj -> unit
(* sfslint: allow SL014 — the object encoder that the codec round trip and the mirror tests build objects with *)
val obj_to_string : obj -> string

val obj_of_slice : Slice.t -> (obj, string) result
(** Decodes a marshaled object where it lies; only the payload of an
    [O_file] or [O_symlink] and the entry names are copied out. *)

val hash_obj : obj -> string
(** SHA-1 of the marshaled object: its content address. *)

type fsinfo = {
  root_hash : string;
  issued_s : int;
  duration_s : int; (** clients refuse roots past their window *)
  serial : int; (** monotone; stops rollback inside the window *)
}

val sign_fsinfo : Rabin.priv -> fsinfo -> string
(** The one signature per snapshot. *)

val verify_fsinfo : Rabin.pub -> fsinfo -> signature:string -> bool

type ro_request =
  | Get_fsinfo
  | Get_obj of string
  | Put_objs of (string * Slice.t) list
      (** publisher → mirror fan-out: store these (hash, bytes) pairs
          (decoded as views into the request).
          The mirror verifies nothing — clients re-verify every object,
          so a bad push can only make fetches fail, never lie. *)
  | Put_root of { fsinfo : fsinfo; signature : string; evict : string list }
      (** swap to the new signed root and drop the [evict]ed hashes *)

type ro_response =
  | Fsinfo_is of { fsinfo : fsinfo; signature : string }
  | Obj_is of string
  | Ro_error of string
  | Put_ok of int

val enc_ro_request : Xdr.enc -> ro_request -> unit
val ro_request_to_string : ro_request -> string
val ro_response_to_string : ro_response -> string
val ro_request_of_string : string -> (ro_request, string) result
val ro_response_of_string : string -> (ro_response, string) result

(** {2 Serving from a lookup} *)

val obj_frame : Slice.t -> string
(** [obj_frame o] is the [Obj_is] reply carrying the marshaled object
    [o], allocated once at its exact size: the bytes of
    [ro_response_to_string (Obj_is (Slice.to_string o))].  A server
    may build it once and send it to every client. *)

val obj_frame_view : string -> (Slice.t, string) result
(** Decodes an object reply as a view of the marshaled object inside
    it, with no copy.  A [Ro_error e] reply is [Error e]; any other
    well-formed reply is [Error "unexpected response"]. *)
