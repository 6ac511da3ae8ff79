external unsafe_get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

external unsafe_set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] blit src spos dst dpos len =
  if
    len < 0 || spos < 0
    || spos > Bytes.length src - len
    || dpos < 0
    || dpos > Bytes.length dst - len
  then invalid_arg "Bytes.blit"
  else if len land 7 = 0 && len <= 64 && src != dst then
    for i = 0 to (len lsr 3) - 1 do
      unsafe_set64 dst (dpos + (8 * i)) (unsafe_get64 src (spos + (8 * i)))
    done
  else Bytes.unsafe_blit src spos dst dpos len
