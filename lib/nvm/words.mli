(** Byte copies of the simulator's hot paths. *)

(** [unsafe_get64 b pos] is the native-endian 64-bit word at byte [pos]
    of [b], and [unsafe_set64 b pos w] stores one there, neither
    checking bounds: the caller has. *)
external unsafe_get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

external unsafe_set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(** [blit src spos dst dpos len] is [Bytes.blit src spos dst dpos len]
    (the same bounds checks, the same [Invalid_argument]), with the
    checks inlined into the caller, and a copy of whole 8-byte words
    between two distinct buffers, up to a 64 B line, made a word at a
    time rather than by a call to [memmove]: the line and field copies
    of every simulated access. *)
val blit : Bytes.t -> int -> Bytes.t -> int -> int -> unit
