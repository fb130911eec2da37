(* Eksblowfish — the "expensive key schedule" Blowfish of Provos and
   Mazières (USENIX '99), the cost-adaptable password transformation SFS
   applies before SRP and private-key encryption (paper section 2.5.2):
   even as hardware improves, guessing attacks should keep costing
   "almost a full second of CPU time per account and candidate
   password". *)

let setup ~(cost : int) ~(salt : string) ~(key : string) : Blowfish.state =
  if cost < 0 || cost > 31 then invalid_arg "Eksblowfish.setup: cost out of range";
  if String.length salt <> 16 then invalid_arg "Eksblowfish.setup: salt must be 16 bytes";
  if String.length key = 0 then invalid_arg "Eksblowfish.setup: empty key";
  let st = Blowfish.raw_initial () in
  Blowfish.raw_expand_key st ~salt ~key;
  for _ = 1 to 1 lsl cost do
    Blowfish.raw_expand_key st ~salt:Blowfish.zero_salt ~key;
    Blowfish.raw_expand_key st ~salt:Blowfish.zero_salt ~key:salt
  done;
  st

(* bcrypt's magic value: three 64-bit blocks. *)
let magic = "OrpheanBeholderScryDoubt"

(* 24-byte password hash: eksblowfish setup, then encrypt the magic value
   64 times in ECB. *)
let hash ~(cost : int) ~(salt : string) (password : string) : string =
  (* Normalize arbitrary-length passwords into the 1..56-byte window the
     key schedule accepts, preserving full entropy via SHA-1. *)
  let key = if String.length password = 0 || String.length password > 56 then Sha1.digest ("eksblowfish" ^ password) else password in
  let st = setup ~cost ~salt ~key in
  let blocks = ref (Sfs_util.Bytesutil.chunks ~size:8 magic) in
  for _ = 1 to 64 do
    blocks :=
      List.map
        (fun b ->
          let xl = Sfs_util.Bytesutil.int_of_be32 b ~off:0
          and xr = Sfs_util.Bytesutil.int_of_be32 b ~off:4 in
          let xl, xr = Blowfish.raw_encrypt_words st xl xr in
          Sfs_util.Bytesutil.be32_of_int xl ^ Sfs_util.Bytesutil.be32_of_int xr)
        !blocks
  done;
  String.concat "" !blocks

