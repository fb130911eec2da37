(* Shared helpers for the test suites. *)

let to_alcotest (tests : QCheck.Test.t list) =
  List.map QCheck_alcotest.to_alcotest tests

(* A deterministic pseudo-random byte source for tests, so failures
   reproduce.  Not cryptographic; the crypto PRNG has its own tests. *)
let make_rand seed =
  let state = ref (Int64.of_int (if seed = 0 then 0x9E3779B9 else seed)) in
  fun () ->
    (* xorshift64* *)
    let x = !state in
    let x = Int64.logxor x (Int64.shift_left x 13) in
    let x = Int64.logxor x (Int64.shift_right_logical x 7) in
    let x = Int64.logxor x (Int64.shift_left x 17) in
    state := x;
    Int64.to_int (Int64.logand x 0xFFL)

let rand_string rand n = String.init n (fun _ -> Char.chr (rand () land 0xff))

let rand_bits_fn seed =
  let rand = make_rand seed in
  fun bits ->
    let nbytes = (bits + 7) / 8 in
    let s = rand_string rand nbytes in
    let n = Sfs_bignum.Nat.of_bytes_be s in
    (* Trim to the requested width. *)
    Sfs_bignum.Nat.rem n (Sfs_bignum.Nat.shift_left Sfs_bignum.Nat.one bits)

let check_string = Alcotest.(check string)
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Words allocated so far: minor-heap words plus words allocated
   directly in the major heap, less promoted words (counted once
   already).  On OCaml 5.1.1 the minor part of [Gc.counters] divides
   the uncollected minor heap by the word size a second time;
   [Gc.minor_words] is exact, and so are [Gc.counters]' major and
   promoted parts. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let alloc_bytes (f : unit -> unit) : int =
  let w0 = allocated_words () in
  f ();
  int_of_float (allocated_words () -. w0) * (Sys.word_size / 8)

(* Fails when one call of [f] allocates more than [bound] bytes; a
   reading costs a few words of its own. *)
let check_alloc_under msg ~(bound : int) (f : unit -> unit) =
  let got = alloc_bytes f in
  if got > bound then Alcotest.failf "%s: allocated %d B, bound %d B" msg got bound

(* One exchange on a raw connection through a window-1 mux, priced as
   one serial round trip; partially applied, it is one mux per
   connection. *)
let call ?(proto = Sfs_net.Costmodel.Tcp) (net : Sfs_net.Simnet.t) (conn : Sfs_net.Simnet.conn) :
    string -> string =
  Sfs_net.Rpc_mux.call (Sfs_net.Rpc_mux.of_conn net ~proto conn)
