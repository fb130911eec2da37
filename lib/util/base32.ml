(* SFS base-32 encoding (paper section 2.2).

   HostIDs are rendered with 32 digits and lower-case letters.  To avoid
   confusion the alphabet omits "l" (lower-case L), "1" (one), "0" (zero)
   and "o".  Twenty bytes (160 bits) encode to exactly 32 characters. *)

let alphabet = "23456789abcdefghijkmnpqrstuvwxyz"

let () = assert (String.length alphabet = 32)

let value_table =
  let t = Array.make 256 (-1) in
  String.iteri (fun i c -> t.(Char.code c) <- i) alphabet;
  t

(* MSB-first 5-bit groups; when the bit count is not a multiple of 5 the
   final group is padded with zero bits (as in RFC 4648, but unpadded). *)
let encode (s : string) : string =
  let nbits = 8 * String.length s in
  let nchars = (nbits + 4) / 5 in
  let out = Bytes.create nchars in
  let acc = ref 0 and have = ref 0 and j = ref 0 in
  String.iter
    (fun c ->
      acc := (!acc lsl 8) lor Char.code c;
      have := !have + 8;
      while !have >= 5 do
        have := !have - 5;
        Bytes.set out !j alphabet.[(!acc lsr !have) land 0x1f];
        incr j
      done)
    s;
  if !have > 0 then begin
    Bytes.set out !j alphabet.[(!acc lsl (5 - !have)) land 0x1f];
    incr j
  end;
  assert (!j = nchars);
  Bytes.unsafe_to_string out

let decode (s : string) : string =
  let nbits = 5 * String.length s in
  let nbytes = nbits / 8 in
  let out = Buffer.create nbytes in
  let acc = ref 0 and have = ref 0 in
  String.iter
    (fun c ->
      let v = value_table.(Char.code c) in
      if v < 0 then invalid_arg "Base32.decode: bad character";
      acc := (!acc lsl 5) lor v;
      have := !have + 5;
      if !have >= 8 then begin
        have := !have - 8;
        Buffer.add_char out (Char.chr ((!acc lsr !have) land 0xff))
      end)
    s;
  (* Trailing bits must be zero padding. *)
  if !have > 0 && !acc land ((1 lsl !have) - 1) <> 0 then
    invalid_arg "Base32.decode: nonzero padding";
  Buffer.contents out
