(* The 64-bit state lives in an 8-byte buffer rather than a mutable
   [int64] field, which would box a fresh [Int64] on every draw; [int],
   [float] and [bool] inline the step and allocate nothing. *)
type t = { state : Bytes.t }

let create ~seed =
  let state = Bytes.create 8 in
  Bytes.set_int64_le state 0 seed;
  { state }

(* splitmix64 (Steele, Lea, Flood 2014): passes BigCrush, one 64-bit
   word of state, trivially splittable. *)
let[@inline] step t =
  let z = Int64.add (Bytes.get_int64_le t.state 0) 0x9E3779B97F4A7C15L in
  Bytes.set_int64_le t.state 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next t = step t

let split t = create ~seed:(step t)

let int t bound =
  assert (bound > 0);
  let mask = Int64.shift_right_logical (step t) 1 in
  Int64.to_int (Int64.rem mask (Int64.of_int bound))

let bits53 t = Int64.to_int (Int64.shift_right_logical (step t) 11)

(* 53 high-quality bits -> [0, 1); exact, as every such int is a float. *)
let float t = float_of_int (bits53 t) *. (1.0 /. 9007199254740992.0)

let bool t = Int64.logand (step t) 1L = 1L

(* Seed override for stochastic test suites: [PACTREE_SEED=n] rides
   over the baked-in default so a failure printed with its seed can be
   replayed exactly. *)
let env_seed ~default =
  match Sys.getenv_opt "PACTREE_SEED" with
  | None | Some "" -> default
  | Some s -> (
      match Int64.of_string_opt s with
      | Some v -> v
      | None -> invalid_arg (Printf.sprintf "PACTREE_SEED=%S is not an integer" s))
