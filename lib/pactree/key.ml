type t = string

let max_len = 32

(* Flipping the sign bit turns signed comparison into unsigned, and
   big-endian byte order makes unsigned comparison lexicographic. *)
let of_int i =
  let v = Int64.logxor (Int64.of_int i) Int64.min_int in
  let b = Bytes.create 8 in
  Bytes.set_int64_be b 0 v;
  Bytes.unsafe_to_string b

let to_int k =
  if String.length k <> 8 then invalid_arg "Key.to_int: not an integer key";
  Int64.to_int (Int64.logxor (String.get_int64_be k 0) Int64.min_int)

let of_string s =
  if String.length s > max_len then
    invalid_arg (Printf.sprintf "Key.of_string: length %d > %d" (String.length s) max_len);
  if String.contains s '\000' then invalid_arg "Key.of_string: NUL byte in key";
  s

let compare = String.compare

let equal = String.equal

let pp ppf k =
  let printable = String.for_all (fun c -> c >= ' ' && c < '\127') k in
  if printable && k <> "" then Format.fprintf ppf "%S" k
  else if String.length k = 8 then Format.fprintf ppf "#%d" (to_int k)
  else Format.fprintf ppf "0x%s" (String.concat "" (List.map (Printf.sprintf "%02x") (List.init (String.length k) (fun i -> Char.code k.[i]))))
