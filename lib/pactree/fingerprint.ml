(* FNV-1a folded to one byte. *)
let of_key k =
  let h = ref 0x811C9DC5 in
  for i = 0 to String.length k - 1 do
    h := (!h lxor Char.code (String.unsafe_get k i)) * 0x01000193 land 0xFFFFFF
  done;
  let byte = !h lxor (!h lsr 8) lxor (!h lsr 16) land 0xFF in
  if byte = 0 then 1 else byte
