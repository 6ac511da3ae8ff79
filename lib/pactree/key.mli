(** Index keys.

    Keys are order-preserving byte strings: comparing keys as strings
    equals comparing them in the index's logical order.  Integer keys
    are encoded as 8-byte big-endian with the sign bit flipped, so
    signed integer order matches byte order.

    Keys are at most {!max_len} bytes (paper §5.2: up to 32 bytes are
    stored inline in a data node) and must not contain NUL bytes when
    used with the trie layers, unless all keys of a trie have one
    length (the standard ART prefix-freedom requirement: {!Art} reads
    each key followed by a 0 terminator). *)

type t = string

val max_len : int

(** [of_int i] encodes any OCaml int, preserving order. *)
val of_int : int -> t

(** Inverse of [of_int].  Raises [Invalid_argument] on keys not
    produced by [of_int]. *)
val to_int : t -> int

(** [of_string s] validates length and NUL-freedom. *)
val of_string : string -> t

val compare : t -> t -> int

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
