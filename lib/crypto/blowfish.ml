(* Blowfish block cipher (Schneier, FSE '93).

   SFS uses Blowfish in CBC mode with a 20-byte key to protect NFS file
   handles (paper section 3.3), and eksblowfish (Provos-Mazières '99)
   builds on its key schedule for password hashing. *)

type state = { p_array : int array; s0 : int array; s1 : int array; s2 : int array; s3 : int array }

let mask32 = 0xFFFFFFFF

(* The initial P-array and S-boxes: 1042 words of pi, memoized. *)
let initial : state Lazy.t =
  lazy
    (let w = Pi_digits.words 1042 in
     {
       p_array = Array.sub w 0 18;
       s0 = Array.sub w 18 256;
       s1 = Array.sub w 274 256;
       s2 = Array.sub w 530 256;
       s3 = Array.sub w 786 256;
     })

let copy_state (st : state) : state =
  {
    p_array = Array.copy st.p_array;
    s0 = Array.copy st.s0;
    s1 = Array.copy st.s1;
    s2 = Array.copy st.s2;
    s3 = Array.copy st.s3;
  }

let feistel (st : state) (x : int) : int =
  let a = (x lsr 24) land 0xff
  and b = (x lsr 16) land 0xff
  and c = (x lsr 8) land 0xff
  and d = x land 0xff in
  ((((st.s0.(a) + st.s1.(b)) land mask32) lxor st.s2.(c)) + st.s3.(d)) land mask32

let encrypt_words (st : state) (xl : int) (xr : int) : int * int =
  let xl = ref xl and xr = ref xr in
  for i = 0 to 15 do
    xl := !xl lxor st.p_array.(i);
    xr := !xr lxor feistel st !xl;
    let t = !xl in
    xl := !xr;
    xr := t
  done;
  (* Undo the final swap, then whiten. *)
  let t = !xl in
  let xl = !xr lxor st.p_array.(17) and xr = t lxor st.p_array.(16) in
  (xl, xr)

(* One block in place at [off], as two big-endian words: the rounds of
   [encrypt_words]/[decrypt_words] on local refs, with no result tuple
   (the CBC passes run allocation-free). *)
let crypt_at ~(decrypt : bool) (st : state) (buf : Bytes.t) (off : int) : unit =
  let xl = ref (Sfs_util.Bytesutil.get_be32 buf ~off)
  and xr = ref (Sfs_util.Bytesutil.get_be32 buf ~off:(off + 4)) in
  for r = 0 to 15 do
    xl := !xl lxor st.p_array.(if decrypt then 17 - r else r);
    xr := !xr lxor feistel st !xl;
    let t = !xl in
    xl := !xr;
    xr := t
  done;
  let t = !xl in
  Sfs_util.Bytesutil.put_be32 buf ~off (!xr lxor st.p_array.(if decrypt then 0 else 17));
  Sfs_util.Bytesutil.put_be32 buf ~off:(off + 4) (t lxor st.p_array.(if decrypt then 1 else 16))

let key_word (key : string) (pos : int) : int * int =
  (* 32 bits of key material starting at byte offset [pos], cyclic. *)
  let n = String.length key in
  let b i = Char.code key.[(pos + i) mod n] in
  (((b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3) land mask32, (pos + 4) mod n)

(* The eksblowfish ExpandKey: xors the key into P, then refills P and the
   S-boxes by repeatedly encrypting a rolling block xored with alternating
   8-byte halves of the salt.  A zero salt gives the standard Blowfish
   key schedule. *)
let expand_key (st : state) ~(salt : string) ~(key : string) : unit =
  if String.length key = 0 then invalid_arg "Blowfish.expand_key: empty key";
  if String.length salt <> 16 then invalid_arg "Blowfish.expand_key: salt must be 16 bytes";
  let pos = ref 0 in
  for i = 0 to 17 do
    let w, p' = key_word key !pos in
    st.p_array.(i) <- st.p_array.(i) lxor w;
    pos := p'
  done;
  let salt_word half i = Sfs_util.Bytesutil.int_of_be32 salt ~off:((8 * half) + (4 * i)) in
  let xl = ref 0 and xr = ref 0 in
  let half = ref 0 in
  let step () =
    let l, r = encrypt_words st (!xl lxor salt_word !half 0) (!xr lxor salt_word !half 1) in
    half := 1 - !half;
    xl := l;
    xr := r
  in
  for i = 0 to 8 do
    step ();
    st.p_array.(2 * i) <- !xl;
    st.p_array.((2 * i) + 1) <- !xr
  done;
  List.iter
    (fun box ->
      for i = 0 to 127 do
        step ();
        box.(2 * i) <- !xl;
        box.((2 * i) + 1) <- !xr
      done)
    [ st.s0; st.s1; st.s2; st.s3 ]

let zero_salt = String.make 16 '\000'

type t = state

let create (key : string) : t =
  let n = String.length key in
  if n < 1 || n > 56 then invalid_arg "Blowfish.create: key must be 1..56 bytes";
  let st = copy_state (Lazy.force initial) in
  expand_key st ~salt:zero_salt ~key;
  st

let crypt_block (f : t -> Bytes.t -> int -> unit) (name : string) (st : t) (block : string) : string =
  if String.length block <> 8 then invalid_arg name;
  let b = Bytes.of_string block in
  f st b 0;
  Bytes.unsafe_to_string b

let encrypt_block = crypt_block (crypt_at ~decrypt:false) "Blowfish.encrypt_block"
let decrypt_block = crypt_block (crypt_at ~decrypt:true) "Blowfish.decrypt_block"

(* CBC over whole blocks, in place; SFS file handles are padded to a
   block multiple by the caller, so no padding scheme lives here. *)
let check_cbc (name : string) ~(iv : string) (buf : Bytes.t) ~(off : int) ~(len : int) : unit =
  if String.length iv <> 8 then invalid_arg (name ^ ": iv");
  if off < 0 || len < 0 || off + len > Bytes.length buf then invalid_arg (name ^ ": range");
  if len mod 8 <> 0 then invalid_arg (name ^ ": not block-aligned")

(* XOR the block at [b] with its chain value: the IV for the first
   block (at [off]), else the block before it. *)
let xor_chain ~(iv : string) (buf : Bytes.t) ~(off : int) (b : int) : unit =
  for i = 0 to 7 do
    let c = if b = off then String.get iv i else Bytes.get buf (b - 8 + i) in
    Bytes.set buf (b + i) (Char.chr (Char.code (Bytes.get buf (b + i)) lxor Char.code c))
  done

let encrypt_cbc_into (st : t) ~(iv : string) (buf : Bytes.t) ~(off : int) ~(len : int) : unit =
  check_cbc "Blowfish.encrypt_cbc_into" ~iv buf ~off ~len;
  let b = ref off in
  while !b < off + len do
    xor_chain ~iv buf ~off !b;
    crypt_at ~decrypt:false st buf !b;
    b := !b + 8
  done

(* Back to front, so each block is unchained against its
   predecessor's ciphertext before that is decrypted in turn. *)
let decrypt_cbc_into (st : t) ~(iv : string) (buf : Bytes.t) ~(off : int) ~(len : int) : unit =
  check_cbc "Blowfish.decrypt_cbc_into" ~iv buf ~off ~len;
  let b = ref (off + len - 8) in
  while !b >= off do
    crypt_at ~decrypt:true st buf !b;
    xor_chain ~iv buf ~off !b;
    b := !b - 8
  done

(* Exposed for eksblowfish. *)
let raw_initial () = copy_state (Lazy.force initial)
let raw_expand_key = expand_key
let raw_encrypt_words = encrypt_words
