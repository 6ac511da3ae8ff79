(** FastFair baseline (Hwang et al., FAST'18): a lock-based persistent
    B+-tree with logless crash consistency.

    Sorted nodes entirely on NVM; in-place record shifting with
    ordered persists; synchronous splits that hold locks along the
    split path (the paper's GC2 cost); string keys stored out-of-node
    behind a pointer (the paper's explanation for FastFair's ~3x drop
    on string keys, Fig 9).  See the implementation header for the
    full cost-model notes. *)

type t

val name : string

val create : Nvm.Machine.t -> ?string_keys:bool -> unit -> t

(** Upsert. *)
val insert : t -> Pactree.Key.t -> int -> unit

val lookup : t -> Pactree.Key.t -> int option

val update : t -> Pactree.Key.t -> int -> bool

(** Lazy deletion (no rebalancing — the paper's workloads are
    delete-free). *)
val delete : t -> Pactree.Key.t -> bool

val scan : t -> Pactree.Key.t -> int -> (Pactree.Key.t * int) list

(** Post-crash recovery: allocator log replay, leaf-lock
    re-initialisation, leaf-chain repair (duplicate windows left by an
    interrupted failure-atomic shift or split), and a rebuild of the
    internal layer from the leaf chain. *)
val recover : t -> unit

(** Walks the leaf chain checking global sorted order; returns the key
    count. *)
val check_invariants : t -> int
