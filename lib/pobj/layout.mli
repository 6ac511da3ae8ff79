(** Declarative persistent-struct layouts.

    A layout is built once per node/record type by appending named
    fields; offsets are computed by the builder (natural alignment:
    8 for words and byte regions, the value size for u8/u16/u32)
    instead of being hand-numbered at every call site.  [?at] pins a
    field to an explicit offset (for line-aligned regions or
    compatibility with an existing on-media format); [seal] fixes the
    object size.

    Fields marked [~transient:true] document stores that are
    {e deliberately} never flushed (version-lock words, selectively
    persisted arrays): {!Pobj} accessors suppress sanitizer tracking
    for them. *)

type kind =
  | Word  (** 8B OCaml int, 8-aligned — also pointer ({!Pmalloc.Pptr.t}) words *)
  | I64
  | U8
  | U16
  | U32
  | Bytes of int  (** opaque byte region *)
  | Slots of { stride : int; count : int }  (** fixed-stride element array *)

type field

type t

val create : string -> t

val tag : t -> string

val word : ?at:int -> ?transient:bool -> t -> string -> field

val i64 : ?at:int -> ?transient:bool -> t -> string -> field

val u8 : ?at:int -> ?transient:bool -> t -> string -> field

val u16 : ?at:int -> ?transient:bool -> t -> string -> field

val u32 : ?at:int -> ?transient:bool -> t -> string -> field

val bytes : ?at:int -> ?transient:bool -> t -> string -> int -> field

val slots : ?at:int -> ?transient:bool -> t -> string -> stride:int -> count:int -> field

(** Round the cursor up to an [n]-byte boundary. *)
val align : t -> int -> unit

(** Fix the object size (default: cursor rounded up to 8) and forbid
    further fields.  Returns the size. *)
val seal : ?size:int -> t -> int

(** Sealed size; raises if the layout is not sealed. *)
val size : t -> int

val fields : t -> field list

val off : field -> int

val field_size : field -> int

val is_transient : field -> bool

(** [slot f i] is the offset of element [i] of a [Slots] field
    (bounds-checked). *)
val slot : field -> int -> int

val stride : field -> int

val pp : Format.formatter -> t -> unit
