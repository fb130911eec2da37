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

type dir
(** A verified directory: the XDR bytes of its entry array (count,
    then each entry's name, kind and child hash), kept where they lie.
    A [dir] decoded by {!obj_of_slice} is a view into the caller's
    string and retains all of it; names are looked up in place and
    only {!dir_entries} decodes. *)

type obj =
  | O_file of string
  | O_dir of dir (** children by content hash *)
  | O_symlink of string

val dir_of_entries : entry list -> dir
(** The publisher's directory: its entries marshaled in order. *)

val dir_length : dir -> int
(** The number of entries, read from the count word. *)

val dir_find : dir -> string -> string option
(** [dir_find d name] is the hash of the first entry named [name],
    comparing names where they lie: it allocates only the 20-byte
    hash it returns. *)

val dir_entries : dir -> entry list
(** Every entry, decoded, in order. *)

(* sfslint: allow SL014 — the object encoder that the codec round trip and the mirror tests build objects with *)
val obj_to_string : obj -> string

val obj_of_slice : Slice.t -> (obj, string) result
(** Decodes a marshaled object where it lies.  The payload of an
    [O_file] or [O_symlink] is copied out; an [O_dir] is validated in
    one allocation-free pass (entry count, each name's length and zero
    padding, each kind, no trailing bytes) and kept as a view into the
    slice's base.  The base must be a string the caller owns and never
    rewrites, such as a reply an exchange returned — never a view lent
    by {!Channel.open_with}, whose buffer is reused. *)

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

val enc_obj_frame : Xdr.enc -> obj -> unit
(** Marshals the [Obj_is] reply carrying [o] in place: the bytes of
    [obj_frame (Slice.of_string (obj_to_string o))], with no
    intermediate string. *)

val obj_frame_view : string -> (Slice.t, string) result
(** Decodes an object reply as a view of the marshaled object inside
    it, with no copy.  A [Ro_error e] reply is [Error e]; any other
    well-formed reply is [Error "unexpected response"]. *)
