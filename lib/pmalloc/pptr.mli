(** Compact persistent pointers (paper §5.8).

    A persistent pointer packs a pool id in the upper bits and a
    40-bit pool offset in the lower bits, so pointers stored on NVM
    stay valid across restarts regardless of where pools are mapped.
    [null] is all-zeroes with offset 0 (offset 0 is reserved by the
    allocators, so no valid object lives there).

    The low 3 bits of offsets are always 0 (8-byte allocation
    alignment); bit 0 is exposed as a tag so tries can distinguish
    leaf pointers from node pointers in a single atomic word. *)

type t = int

val null : t

val is_null : t -> bool

val make : pool:int -> off:int -> t

val pool : t -> int

val off : t -> int

(** [tagged p] sets bit 0; [untag p] clears it; [is_tagged p] tests it. *)
val tagged : t -> t

val untag : t -> t

val is_tagged : t -> bool

val equal : t -> t -> bool

(** [resolve machine p] is the pool of [p]: an index into [machine]'s
    pool table, allocation-free.  Pool ids are numbered per machine
    (see {!Nvm.Machine.pool_count}), so a pointer resolves against the
    machine it belongs to.  This lets pointers cross heaps (e.g. an
    SMO-log entry in the log pool naming a data node in the data heap)
    while two machines in one process each resolve their own pool 0. *)
val resolve : Nvm.Machine.t -> t -> Nvm.Pool.t

val pp : Format.formatter -> t -> unit
