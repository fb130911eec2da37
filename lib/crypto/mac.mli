(** SHA-1-based MAC over SFS traffic (HMAC-SHA-1 over length ∥ bytes). *)

val mac_size : int

type schedule
(** Reusable keyed HMAC state for a long-lived key holder: inner and
    outer contexts compressed over the ipad/opad blocks once per key, a
    work context and a scratch block.  {!mac_into} and {!verify_into}
    allocate nothing, and {!rekey} changes the key in place — the
    channel re-keys one schedule per direction for every message.  The
    one-shot functions below never build one. *)

val schedule : key:string -> schedule
[@@sfs.secret]

val rekey : schedule -> Bytes.t -> off:int -> len:int -> unit
(** [rekey s key ~off ~len] re-keys [s] in place with [len] bytes of
    [key] at [off], with no allocation.
    @raise Invalid_argument when the range is out of bounds or longer
    than the 64-byte SHA-1 block. *)

val hmac : key:string -> string -> string
[@@sfs.declassify "an HMAC tag is published alongside the message; it does not invert to the key"]
(** Plain HMAC-SHA-1, also used by SRP key confirmation. *)

val of_message : key:string -> string -> string
[@@sfs.declassify "an HMAC tag is published alongside the message; it does not invert to the key"]
(** MAC over the 4-byte big-endian length followed by the message, per
    paper section 3.1.3. *)

val mac_into : schedule -> Bytes.t -> off:int -> len:int -> dst:Bytes.t -> dst_off:int -> unit
[@@sfs.declassify "writes only the 20-byte public tag into the destination buffer"]
(** [mac_into s buf ~off ~len ~dst ~dst_off] MACs [len] bytes of [buf]
    at [off] and writes the 20-byte tag into [dst] at [dst_off], with no
    allocation.  The length word is {e not} prepended: the channel
    passes a frame whose first bytes already are the big-endian length,
    making this equivalent to {!of_message} on the plaintext.
    @raise Invalid_argument when the tag range is out of bounds. *)

val verify_into : schedule -> Bytes.t -> off:int -> len:int -> tag_off:int -> bool
[@@sfs.declassify "a boolean verdict from a constant-time comparison reveals no key bits"]
(** [verify_into s buf ~off ~len ~tag_off] recomputes the MAC of [len]
    bytes at [off] and compares it in constant time with the 20-byte
    tag stored in [buf] at [tag_off], with no allocation.
    @raise Invalid_argument when the tag range is out of bounds. *)

val verify : key:string -> tag:string -> string -> bool
[@@sfs.declassify "a boolean verdict from a constant-time comparison reveals no key bits"]
(** Constant-time comparison against a freshly computed tag. *)
