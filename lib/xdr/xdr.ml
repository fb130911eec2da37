(* XDR — External Data Representation (RFC 1832 subset).

   All SFS programs communicate with Sun RPC, and "any data that SFS
   hashes, signs, or public-key encrypts is defined as an XDR data
   structure; SFS computes the hash or public key function on the raw,
   marshaled bytes" (paper section 3.2).  This module provides the
   marshaling primitives; protocol modules compose them. *)

exception Error of string

let error fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

(* --- Encoding ---

   The encoder is a growable byte buffer written in place: integers go
   straight in big-endian via Bytesutil.put_*, opaques are blitted and
   their XDR padding zero-filled, with no intermediate 4-byte strings
   or pad allocations.  [reset] lets RPC layers keep one encoder per
   connection instead of allocating one per call. *)

type enc = { mutable buf : Bytes.t; mutable len : int }

let make_enc () : enc = { buf = Bytes.create 256; len = 0 }

let reset (e : enc) : unit = e.len <- 0

let to_string (e : enc) : string = Bytes.sub_string e.buf 0 e.len
let buffer (e : enc) : Bytes.t = e.buf
let length (e : enc) : int = e.len

(* Room for [n] more bytes, growing geometrically.  Bytes.create leaves
   contents uninitialized; writers below fill every byte they claim. *)
let reserve (e : enc) (n : int) : int =
  let need = e.len + n in
  if need > Bytes.length e.buf then begin
    let cap = ref (Bytes.length e.buf * 2) in
    while !cap < need do
      cap := !cap * 2
    done;
    let buf = Bytes.create !cap in
    Bytes.blit e.buf 0 buf 0 e.len;
    e.buf <- buf
  end;
  let off = e.len in
  e.len <- need;
  off

let pad4 (n : int) : int = (4 - (n land 3)) land 3

(* Appends pre-marshaled bytes verbatim (nested structures, RPC args). *)
let enc_raw (e : enc) (s : string) : unit =
  let off = reserve e (String.length s) in
  Bytes.blit_string s 0 e.buf off (String.length s)

let enc_uint32 (e : enc) (v : int) : unit =
  if v < 0 || v > 0xFFFFFFFF then error "enc_uint32: out of range: %d" v;
  let off = reserve e 4 in
  Sfs_util.Bytesutil.put_be32 e.buf ~off v

let enc_uint64 (e : enc) (v : int64) : unit =
  let off = reserve e 8 in
  Sfs_util.Bytesutil.put_be64 e.buf ~off v

let enc_bool (e : enc) (b : bool) : unit = enc_uint32 e (if b then 1 else 0)

(* Blit [len] opaque bytes of [s] at [src] and zero their padding in
   one reservation. *)
let enc_padded_sub (e : enc) (s : string) ~(src : int) ~(len : int) : unit =
  let pad = pad4 len in
  let off = reserve e (len + pad) in
  Bytes.blit_string s src e.buf off len;
  Bytes.fill e.buf (off + len) pad '\000'

let enc_padded (e : enc) (s : string) : unit = enc_padded_sub e s ~src:0 ~len:(String.length s)

let enc_fixed_opaque (e : enc) ~(size : int) (s : string) : unit =
  if String.length s <> size then error "enc_fixed_opaque: expected %d bytes, got %d" size (String.length s);
  enc_padded e s

let enc_opaque (e : enc) (s : string) : unit =
  enc_uint32 e (String.length s);
  enc_padded e s

let enc_opaque_slice (e : enc) (s : Sfs_util.Slice.t) : unit =
  let len = Sfs_util.Slice.length s in
  enc_uint32 e len;
  enc_padded_sub e (Sfs_util.Slice.base s) ~src:(Sfs_util.Slice.offset s) ~len

let enc_string = enc_opaque

(* Reserve the length word, let [f] write the body in place, then
   backpatch the length and zero-pad: [enc_opaque e (encode f v)]
   without the intermediate encoder and string. *)
let enc_nested (e : enc) (f : enc -> 'a) : 'a =
  let at = reserve e 4 in
  let r = f e in
  let n = e.len - at - 4 in
  Sfs_util.Bytesutil.put_be32 e.buf ~off:at n;
  let pad = pad4 n in
  let off = reserve e pad in
  Bytes.fill e.buf off pad '\000';
  r

let enc_option (e : enc) (f : enc -> 'a -> unit) (v : 'a option) : unit =
  match v with
  | None -> enc_bool e false
  | Some x ->
      enc_bool e true;
      f e x

let enc_array (e : enc) (f : enc -> 'a -> unit) (l : 'a list) : unit =
  enc_uint32 e (List.length l);
  List.iter (f e) l

(* --- Decoding ---

   [stop] bounds the decoder to a window of [data]: the zero-copy read
   path decodes nested structures (an Fs_reply's results field, a READ
   reply's payload) in place, as views into the one decrypted frame,
   instead of copying each layer out with String.sub first. *)

type dec = { data : string; mutable pos : int; stop : int }

let make_dec (data : string) : dec = { data; pos = 0; stop = String.length data }

(* A decoder over a window of [data] — decoding a nested structure in
   place, without carving it out first. *)
let make_dec_sub (data : string) ~(off : int) ~(len : int) : dec =
  if off < 0 || len < 0 || off + len > String.length data then
    error "make_dec_sub: window [%d,%d) outside %d bytes" off (off + len) (String.length data);
  { data; pos = off; stop = off + len }

let remaining (d : dec) : int = d.stop - d.pos

let need (d : dec) (n : int) : unit =
  if remaining d < n then error "decode: truncated (need %d, have %d)" n (remaining d)

let dec_uint32 (d : dec) : int =
  need d 4;
  let v = Sfs_util.Bytesutil.int_of_be32 d.data ~off:d.pos in
  d.pos <- d.pos + 4;
  v

let dec_uint64 (d : dec) : int64 =
  need d 8;
  let v = Sfs_util.Bytesutil.int64_of_be64 d.data ~off:d.pos in
  d.pos <- d.pos + 8;
  v

let dec_bool (d : dec) : bool =
  match dec_uint32 d with
  | 0 -> false
  | 1 -> true
  | v -> error "dec_bool: bad value %d" v

let dec_fixed_opaque (d : dec) ~(size : int) : string =
  need d (size + pad4 size);
  let s = String.sub d.data d.pos size in
  d.pos <- d.pos + size + pad4 size;
  s

let dec_opaque ?(max = 0x100000) (d : dec) : string =
  let n = dec_uint32 d in
  if n > max then error "dec_opaque: length %d exceeds bound %d" n max;
  dec_fixed_opaque d ~size:n

(* Zero-copy opaque: a view of the payload in place of a copy. *)
let dec_opaque_slice ?(max = 0x100000) (d : dec) : Sfs_util.Slice.t =
  let n = dec_uint32 d in
  if n > max then error "dec_opaque_slice: length %d exceeds bound %d" n max;
  need d (n + pad4 n);
  let s = Sfs_util.Slice.make d.data ~off:d.pos ~len:n in
  d.pos <- d.pos + n + pad4 n;
  s

let dec_string = dec_opaque

let dec_option (d : dec) (f : dec -> 'a) : 'a option =
  if dec_bool d then Some (f d) else None

let dec_array ?(max = 0x10000) (d : dec) (f : dec -> 'a) : 'a list =
  let n = dec_uint32 d in
  if n > max then error "dec_array: length %d exceeds bound %d" n max;
  List.init n (fun _ -> f d)

(* All remaining bytes (trailing RPC args or results), as a view. *)
let dec_rest_slice (d : dec) : Sfs_util.Slice.t =
  let s = Sfs_util.Slice.make d.data ~off:d.pos ~len:(remaining d) in
  d.pos <- d.stop;
  s

(* Run a decoder over a complete message. *)
let run (data : string) (f : dec -> 'a) : ('a, string) result =
  let d = make_dec data in
  match f d with
  | v ->
      if remaining d = 0 then Ok v
      else Result.Error (Printf.sprintf "decode: %d trailing bytes" (remaining d))
  | exception Error msg -> Result.Error msg

(* Same, over a view — the message never gets carved out of its frame. *)
let run_slice (s : Sfs_util.Slice.t) (f : dec -> 'a) : ('a, string) result =
  match make_dec_sub (Sfs_util.Slice.base s) ~off:(Sfs_util.Slice.offset s) ~len:(Sfs_util.Slice.length s) with
  | d -> (
      match f d with
      | v ->
          if remaining d = 0 then Ok v
          else Result.Error (Printf.sprintf "decode: %d trailing bytes" (remaining d))
      | exception Error msg -> Result.Error msg)
  | exception Error msg -> Result.Error msg

(* Serialize with an encoder function. *)
let encode (f : enc -> 'a -> unit) (v : 'a) : string =
  let e = make_enc () in
  f e v;
  to_string e
