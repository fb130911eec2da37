(** Wire formats of the SFS read-write file protocol (paper section
    3.3): NFS 3 procedure payloads tagged with authentication numbers,
    replies carrying piggybacked lease-invalidation callbacks, plus the
    Figure 4 authentication exchange.  All messages ride the secure
    channel. *)

open Sfs_nfs.Nfs_types

type request =
  | Fs_call of { xid : int; authno : int; proc : int; trace : int; span : int; args : string }
  | Auth_req of { seqno : int; authmsg : string }
(** [xid] identifies one logical call across retransmissions: a client
    that reconnects and re-issues a request keeps the same xid, and the
    server's duplicate request cache replays the stored reply instead
    of re-executing a non-idempotent procedure.  [trace]/[span] carry
    the client's causal context (DESIGN.md §13); both are 0 when
    tracing is off, and neither participates in duplicate-request
    matching. *)

type response =
  | Fs_reply of { results : Sfs_util.Slice.t; invalidations : fh list }
  | Auth_granted of { authno : int; seqno : int }
  | Auth_denied of { seqno : int; reason : string }
  | Proto_error of string
(** [results] holds the marshaled NFS results: a view into the buffer
    the reply was decoded from, not a copy. *)

val enc_fs_call :
  Sfs_xdr.Xdr.enc ->
  xid:int ->
  authno:int ->
  proc:int ->
  trace:int ->
  span:int ->
  (Sfs_xdr.Xdr.enc -> unit) ->
  unit
(** Marshals an [Fs_call] in place, its arguments written by the
    function as a nested opaque ({!Sfs_xdr.Xdr.enc_nested}): the bytes
    of {!request_to_string} of the same call with the arguments encoded
    separately. *)

val enc_fs_reply : Sfs_xdr.Xdr.enc -> (Sfs_xdr.Xdr.enc -> bool) -> (unit -> fh list) -> bool
(** [enc_fs_reply e results invalidations] marshals an [Fs_reply] in
    place: [results] writes the NFS results as a nested opaque, and only
    when it returns [true] is [invalidations ()] taken and appended —
    the bytes of {!response_to_string}.  On [false] [e] holds a partial
    message for the caller to discard. *)

val enc_response : Sfs_xdr.Xdr.enc -> response -> unit

val request_to_string : request -> string
val response_to_string : response -> string
val request_of_slice : Sfs_util.Slice.t -> (request, string) result
(** Decodes a request out of a view, copying every field: nothing of
    the result points into the view, so it may be decoded in a channel
    borrow ({!Channel.open_with}). *)

val response_of_slice : Sfs_util.Slice.t -> (response, string) result
(** The one response decoder, over an opened frame
    ({!Channel.open_with}): an [Fs_reply]'s [results] is a view into
    [frame], valid no longer than the frame.  Callers holding a string
    wrap it with the free {!Sfs_util.Slice.of_string}. *)

val authno_anonymous : int
(** 0 — requests without (successful) user authentication. *)

val proc_getroot : int
(** Dialect-private procedure fetching the encrypted root handle
    (subsumes plain NFS's separate MOUNT program). *)
