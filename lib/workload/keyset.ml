type kind = Int_keys | String_keys

(* Multiplication by an odd constant is a bijection modulo 2^46, so
   every index yields a distinct scattered key. *)
let scatter i = i * 0x9E3779B97F47 land ((1 lsl 46) - 1)

let key kind i =
  let v = scatter i in
  match kind with
  | Int_keys -> Pactree.Key.of_int v
  | String_keys -> Printf.sprintf "user%019d" v (* 23 bytes, like the paper *)

let key_inline = function Int_keys -> 8 | String_keys -> 32
