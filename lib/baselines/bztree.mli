(** BzTree baseline (Arulraj et al., VLDB'18): a latch-free persistent
    B+-tree built on PMwCAS.

    Unsorted append-only leaves (linear-scan lookups, snapshot+sort
    scans), immutable internal nodes replaced copy-on-write (heavy
    allocation — the paper measures ~40% allocator time), one or more
    PMwCAS executions per operation (~15 flushes per insert).  Frozen
    nodes forward through replacement pointers (a 2-child bridge for
    splits); retired nodes are not reclaimed.  See the implementation
    header. *)

type t

val name : string

val create : Nvm.Machine.t -> ?string_keys:bool -> unit -> t

val insert : t -> Pactree.Key.t -> int -> unit

val lookup : t -> Pactree.Key.t -> int option

val update : t -> Pactree.Key.t -> int -> bool

val delete : t -> Pactree.Key.t -> bool

val scan : t -> Pactree.Key.t -> int -> (Pactree.Key.t * int) list

(** Number of freeze+consolidate/split operations so far. *)
val consolidations : t -> int

(** Post-crash recovery: allocator log replay, PMwCAS descriptor
    replay, and roll-back of freezes that lost their replacement
    pointer. *)
val recover : t -> unit

(** Walks the (forwarding-resolved) leaf chain checking order; returns
    the key count. *)
val check_invariants : t -> int
