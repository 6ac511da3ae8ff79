(* FNV-1a folded to one byte. *)
let of_bytes b pos len =
  let h = ref 0x811C9DC5 in
  for i = pos to pos + len - 1 do
    h := (!h lxor Char.code (Bytes.unsafe_get b i)) * 0x01000193 land 0xFFFFFF
  done;
  let byte = !h lxor (!h lsr 8) lxor (!h lsr 16) land 0xFF in
  if byte = 0 then 1 else byte

let of_key k = of_bytes (Bytes.unsafe_of_string k) 0 (String.length k)
