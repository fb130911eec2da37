(** The SFS secure channel (paper section 3.1.3): one long-running ARC4
    stream per direction, a fresh 32-byte MAC key pulled from the stream
    for every message, length and payload MACed then encrypted.

    Drop, replay or reorder desynchronizes the streams and fails the
    MAC, so the channel provides secrecy, integrity, freshness and
    replay protection together.  After an {!open_with} error the channel is
    unusable: tear the connection down and renegotiate, as SFS does. *)

type open_error =
  [ `Mac_mismatch  (** well-framed message, bad tag: tampering *)
  | `Replay  (** frame shape wrong after decrypt: the stream-desync
                 signature of dropped/replayed/reordered ciphertext *) ]

type t

val create :
  ?encrypt:bool ->
  ?clock:Sfs_net.Simclock.t ->
  ?obs:Sfs_obs.Obs.registry ->
  ?label:string ->
  send_key:string ->
  recv_key:string ->
  unit ->
  t
(** One endpoint.  The peer must be created with the two keys swapped.
    [~encrypt:false] is the "SFS w/o encryption" ablation: framing and
    MAC stay, the ARC4 pass is skipped.  When [clock] is given, each
    {!seal} charges the modeled software-encryption time.  When [obs]
    is given, seal/open spans and per-direction message, byte, crypto-µs
    and MAC-failure counters are recorded under [channel.<label>.*]
    (default label ["chan"]). *)

val seal_bytes : t -> Bytes.t -> len:int -> string
[@@sfs.declassify "the trusted seal boundary: MAC-then-encrypt output is what SFS puts on the wire"]
(** Protect one outgoing message, the first [len] bytes of the buffer
    (an encoder's, or a duplicate-request-cache entry's), which is only
    read.  Charges {!crypto_cost_us} to the clock, if any.  Allocates
    only the returned frame: the per-message MAC key is drawn into a fixed
    buffer, the direction's HMAC state is re-keyed from it in place,
    and the frame is assembled and encrypted in a reused buffer. *)

val seal : t -> string -> string
[@@sfs.declassify "the trusted seal boundary: MAC-then-encrypt output is what SFS puts on the wire"]
(** {!seal_bytes} of a whole string. *)

val open_with : t -> string -> (Sfs_util.Slice.t -> 'a) -> ('a, open_error) result
(** [open_with t wire f] opens one incoming message and applies [f] to
    its plaintext.  The message is decrypted into the receive
    direction's reused frame buffer and its MAC is checked there; [f]
    runs only after the tag has verified, so no unauthenticated byte
    reaches it.  The view is lent, not given: the next open on this
    channel overwrites the buffer, so [f] must decode or copy out
    whatever it keeps, and the view must not outlive the call.  Any
    [Error] poisons the channel (the receive stream position is
    unrecoverable): the caller must tear the connection down and
    signal reconnection.  Both error cases bump the
    [channel.<label>.mac_failures] counter; [`Replay] additionally
    bumps [channel.<label>.replays].  Allocates only the view and the
    result; an exception from [f] propagates. *)

val open_ : t -> string -> (string, open_error) result
(** {!open_with} copying the plaintext out. *)

val crypto_cost_us : t -> int -> float
[@@sfs.declassify "a modeled time computed from the encrypt flag and a byte count; no key or stream state reaches it"]
(** The time {!seal} charges for a payload of that size; zero when
    encryption is off.  Critical-path samples attribute seals by it. *)
