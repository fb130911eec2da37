(* Small byte-string helpers shared across SFS libraries.

   The [put_*]/[get_*] primitives write integers directly into caller
   buffers; they are the allocation-free substrate of the wire fast
   path (XDR encoding, channel framing, SHA-1 finalization). *)

let xor (a : string) (b : string) : string =
  let n = min (String.length a) (String.length b) in
  String.init n (fun i -> Char.chr (Char.code a.[i] lxor Char.code b.[i]))

(* Constant-time comparison: MACs and password digests must not be
   compared with a short-circuiting equality. *)
let ct_equal (a : string) (b : string) : bool =
  String.length a = String.length b
  &&
  let acc = ref 0 in
  String.iteri (fun i c -> acc := !acc lor (Char.code c lxor Char.code b.[i])) a;
  !acc = 0

(* Constant-time comparison of the first [len] bytes of [a] against
   [len] bytes of [b] at [off], without extracting a substring. *)
let ct_equal_sub (a : Bytes.t) (b : Bytes.t) ~(off : int) ~(len : int) : bool =
  len >= 0
  && len <= Bytes.length a
  && off >= 0
  && off + len <= Bytes.length b
  &&
  let acc = ref 0 in
  for i = 0 to len - 1 do
    acc := !acc lor (Char.code (Bytes.unsafe_get a i) lxor Char.code (Bytes.unsafe_get b (off + i)))
  done;
  !acc = 0

let put_be32 (b : Bytes.t) ~(off : int) (v : int) : unit =
  Bytes.set b off (Char.chr ((v lsr 24) land 0xff));
  Bytes.set b (off + 1) (Char.chr ((v lsr 16) land 0xff));
  Bytes.set b (off + 2) (Char.chr ((v lsr 8) land 0xff));
  Bytes.set b (off + 3) (Char.chr (v land 0xff))

(* The big-endian readers are spelled out byte by byte: a local
   [fun i -> ...] helper would allocate a closure on every call. *)
let get_be32 (b : Bytes.t) ~(off : int) : int =
  (Char.code (Bytes.get b off) lsl 24)
  lor (Char.code (Bytes.get b (off + 1)) lsl 16)
  lor (Char.code (Bytes.get b (off + 2)) lsl 8)
  lor Char.code (Bytes.get b (off + 3))

let put_be64 (b : Bytes.t) ~(off : int) (v : int64) : unit =
  for i = 0 to 7 do
    Bytes.set b (off + i)
      (Char.chr (Int64.to_int (Int64.shift_right_logical v (8 * (7 - i))) land 0xff))
  done

let be32_of_int (v : int) : string =
  let b = Bytes.create 4 in
  put_be32 b ~off:0 v;
  Bytes.unsafe_to_string b

let int_of_be32 (s : string) ~(off : int) : int =
  (Char.code s.[off] lsl 24)
  lor (Char.code s.[off + 1] lsl 16)
  lor (Char.code s.[off + 2] lsl 8)
  lor Char.code s.[off + 3]

let be64_of_int64 (v : int64) : string =
  let b = Bytes.create 8 in
  put_be64 b ~off:0 v;
  Bytes.unsafe_to_string b

let int64_of_be64 (s : string) ~(off : int) : int64 =
  let b i = Int64.of_int (Char.code s.[off + i]) in
  let ( <| ) x n = Int64.shift_left x n in
  let ( |+ ) = Int64.logor in
  (b 0 <| 56) |+ (b 1 <| 48) |+ (b 2 <| 40) |+ (b 3 <| 32)
  |+ (b 4 <| 24) |+ (b 5 <| 16) |+ (b 6 <| 8) |+ b 7

let chunks ~(size : int) (s : string) : string list =
  if size <= 0 then invalid_arg "Bytesutil.chunks";
  let n = String.length s in
  let rec go off acc =
    if off >= n then List.rev acc
    else
      let len = min size (n - off) in
      go (off + len) (String.sub s off len :: acc)
  in
  if n = 0 then [] else if n <= size then [ s ] else go 0 []
