type t = int

let null = 0

let is_null p = p land lnot 1 = 0

let make ~pool ~off =
  if pool < 0 || pool >= 1 lsl 22 then
    invalid_arg (Printf.sprintf "Pptr.make: pool id %d outside [0, 2^22)" pool);
  if off < 0 || off >= 1 lsl 40 then
    invalid_arg (Printf.sprintf "Pptr.make: offset %d outside [0, 2^40)" off);
  (pool lsl 40) lor off

let pool p = (p lsr 40) land 0x3FFFFF

let off p = p land ((1 lsl 40) - 1) land lnot 1

let tagged p = p lor 1

let untag p = p land lnot 1

let is_tagged p = p land 1 = 1

let equal = Int.equal

let resolve machine p = Nvm.Pool.of_id machine (pool p)

let pp ppf p =
  if is_null p then Format.pp_print_string ppf "null"
  else Format.fprintf ppf "%d:%#x%s" (pool p) (off p) (if is_tagged p then "+t" else "")
