(** PDL-ART: Persistent Durable-Linearizable Adaptive Radix Tree
    (paper §5.1).

    Maps keys ({!Key.t}) to persistent payload pointers.  The trie
    reads a key followed by a 0 terminator that it supplies itself,
    which makes the key set prefix-free ({!Key}); callers pass the key
    as it is.  Used as PACTree's search layer (payload = data
    node) and standalone as the PDL-ART baseline index (payload = kv
    record).

    Concurrency: optimistic lock coupling over {!Vlock}; readers never
    write (except lazily re-initialising stale-generation locks).
    Crash consistency is log-free via ordered persists and
    copy-on-write structural changes committed by single 8-byte
    pointer swaps; a per-thread pending log plus the allocator's
    malloc-to semantics prevent persistent memory leaks. *)

type t

type stats = {
  mutable restarts : int;
  mutable allocs : int;
  mutable retires : int;
}

type insert_outcome = Inserted | Replaced of Pmalloc.Pptr.t

(** Bytes of meta-pool space the trie needs (root, generation, pending
    log). *)
val meta_size : int

(** [create ~heap ~meta ~epoch ~key_of_leaf ~compare_leaf] opens (or
    creates) a trie whose roots/logs live at the base of [meta].
    Increments the persistent generation id, voiding all pre-crash
    locks: a restart reopens the trie with [create], so the volatile
    state it builds (this generation, the given epoch) is the only
    one a recovered trie has.  [key_of_leaf] must return the key of a
    payload; [compare_leaf p k] must have the sign of
    [String.compare (key_of_leaf p) k] at the same simulated cost, and
    is what the lookups use: it can compare in place instead of
    building the key. *)
val create :
  heap:Pmalloc.Heap.t ->
  meta:Nvm.Pool.t ->
  epoch:Epoch.t ->
  key_of_leaf:(Pmalloc.Pptr.t -> string) ->
  compare_leaf:(Pmalloc.Pptr.t -> string -> int) ->
  t

val stats : t -> stats

val generation : t -> int

(** Exact match. *)
val lookup : t -> string -> Pmalloc.Pptr.t option

(** Greatest leaf with key <= the given key (anchor-key routing,
    §5.3), or [Pptr.null] if there is none.  Allocation-free: every
    index operation routes through it. *)
val lookup_le : t -> string -> Pmalloc.Pptr.t

(** Insert, or replace the payload of an equal key (returning the
    previous payload exactly once, so callers can reclaim it). *)
val insert : t -> string -> Pmalloc.Pptr.t -> insert_outcome

(** [delete t k] returns the removed payload when the key was
    present. *)
val delete : t -> string -> Pmalloc.Pptr.t option

(** In-order iteration over payloads with key >= the given key;
    stops when [f] returns [false].  Keys are emitted in strictly
    increasing order, each at most once: a restart (a node retired under
    the scan) resumes strictly after the last emitted payload, from a
    fresh root.  [f] may modify the trie.  (PACTree proper never scans
    through the trie — only the PDL-ART baseline does.) *)
val iter_from : t -> string -> (Pmalloc.Pptr.t -> bool) -> unit

(** Post-crash recovery of a trie that {!create} has just reopened
    on the crashed pools (the reopening bumped the generation): frees
    unreachable pending-log entries.  Returns the number of freed
    nodes.  The heap's own {!Pmalloc.Heap.recover} must run first. *)
val recover : t -> int

(** Drop the whole trie without freeing any node — used when the
    backing pool was volatile (DRAM search layer) and a crash wiped
    it; the trie is then rebuilt from the data layer. *)
val reset : t -> unit

(** Offset of the root pointer in the meta pool (test helper: a test
    forges the stale root a racing reader would have read). *)
val root_off : int

(** Number of leaves (test helper; walks the whole trie). *)
val cardinal : t -> int
