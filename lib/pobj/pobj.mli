(** Typed persistent objects over {!Nvm.Pool}.

    An {!obj} is a (pool, base offset) handle; field positions come
    from a declarative {!Layout} built once per record type, instead
    of integer offsets hand-threaded through every call site.  The
    layer also owns the persistence idioms — [flush]/[persist] of
    fields and whole objects — and the boundary between persistent and
    deliberately-transient state: layout fields marked [~transient]
    and [transient_cas] write without opening {!Sanitizer}
    obligations (PACTree's version locks exempt their words the same
    way).

    The record is exposed so persistent-structure handle types can be
    defined as [type t = Pobj.obj = { pool : Nvm.Pool.t; off : int }]
    and keep pattern-matching on their fields. *)

module Layout = Layout
module Sanitizer = Sanitizer

type obj = { pool : Nvm.Pool.t; off : int }

val make : Nvm.Pool.t -> int -> obj

val pool : obj -> Nvm.Pool.t

val base : obj -> int

(** [shift o d] is the object at [base o + d] (e.g. a slot within a
    node). *)
val shift : obj -> int -> obj

val equal : obj -> obj -> bool

val pp : Format.formatter -> obj -> unit

(** {2 Raw accessors}

    Offsets are relative to the object base.  Escape hatch for
    variable-length regions (keys, values, anchors) that a static
    layout cannot name per element. *)

val read_int : obj -> int -> int

val write_int : obj -> int -> int -> unit

val read_i64 : obj -> int -> int64

val write_i64 : obj -> int -> int64 -> unit

val read_u8 : obj -> int -> int

val write_u8 : obj -> int -> int -> unit

val read_u16 : obj -> int -> int

val write_u16 : obj -> int -> int -> unit

val read_u32 : obj -> int -> int

val write_u32 : obj -> int -> int -> unit

val read_string : obj -> int -> int -> string

val write_string : obj -> int -> string -> unit

val blit_to_bytes : obj -> int -> bytes -> int -> int -> unit

val blit_from_bytes : obj -> int -> bytes -> int -> int -> unit

val compare_string : obj -> int -> int -> string -> int

val fill_zero : obj -> int -> int -> unit

(** 8-byte atomic compare-and-swap at a base-relative offset. *)
val cas : obj -> int -> expected:int -> int -> bool

(** {2 Typed field accessors}

    Writes through a [~transient] field are automatically exempt from
    sanitizer tracking; [set_int] and [cas_field] of one are transient
    stores ({!Nvm.Pool.write_int_transient}), which no persist checker
    sees. *)

val get_int : obj -> Layout.field -> int

val set_int : obj -> Layout.field -> int -> unit

val get_i64 : obj -> Layout.field -> int64

val set_i64 : obj -> Layout.field -> int64 -> unit

val get_u8 : obj -> Layout.field -> int

val set_u8 : obj -> Layout.field -> int -> unit

val get_u16 : obj -> Layout.field -> int

val set_u16 : obj -> Layout.field -> int -> unit

val get_u32 : obj -> Layout.field -> int

val set_u32 : obj -> Layout.field -> int -> unit

val cas_field : obj -> Layout.field -> expected:int -> int -> bool

(** {2 Persistence} *)

val clwb : obj -> int -> unit

(** [flush o rel len]: clwb every line of [\[rel, rel+len)] (no
    fence). *)
val flush : obj -> int -> int -> unit

(** [ntstore o rel buf pos len]: {!Nvm.Pool.ntstore} at [rel] — a
    non-temporal store of the bytes, each line of which is staged as
    [clwb] stages it (no fence). *)
val ntstore : obj -> int -> bytes -> int -> int -> unit

val fence : obj -> unit

(** [flush] + [fence]. *)
val persist : obj -> int -> int -> unit

val flush_field : obj -> Layout.field -> unit

val persist_field : obj -> Layout.field -> unit

(** Flush and fence the whole sealed layout footprint. *)
val persist_obj : obj -> Layout.t -> unit

(** {2 Transient stores}

    Deliberately never flushed (selectively persisted regions): a
    transient store ({!Nvm.Pool.cas_int_transient}), which no persist
    checker sees. *)

val transient_cas : obj -> int -> expected:int -> int -> bool
