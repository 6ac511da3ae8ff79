(** Standalone PDL-ART baseline: the paper's persistent ART used
    directly as a key-value index (the Fig 12 starting point).

    Key-value pairs live in out-of-node records: one NVM allocation
    per fresh insert (GA3), one extra dereference per lookup, random
    reads per scan result (GA5).  Updates of existing keys are
    in-place atomic 8-byte value stores. *)

type t

val name : string

val create :
  Nvm.Machine.t ->
  ?alloc_kind:Pmalloc.Heap.kind ->
  ?numa_pools:int ->
  unit ->
  t

val insert : t -> Pactree.Key.t -> int -> unit

val lookup : t -> Pactree.Key.t -> int option

val update : t -> Pactree.Key.t -> int -> bool

val delete : t -> Pactree.Key.t -> bool

val scan : t -> Pactree.Key.t -> int -> (Pactree.Key.t * int) list

(** Post-crash recovery: the heap log, then the trie reopened with a
    fresh epoch and its pending log replayed. *)
val recover : t -> unit

(** The underlying trie (tests/benchmarks). *)
val art : t -> Pactree.Art.t

val heap : t -> Pmalloc.Heap.t

module Index : Index_intf.S with type t = t
