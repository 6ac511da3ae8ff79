(** Per-thread persistent SMO logs (paper §5.6).

    Every data-node split or merge is logged before it mutates the
    data layer; the background updater (or crash recovery) replays
    entries in timestamp order to synchronise the search layer, then
    clears them.

    Each simulated thread owns a ring of entries on its NUMA domain's
    log pool; a full ring back-pressures the writer ({!reserve}) until
    the updater catches up.  In its ring a thread owns a spare slot
    (beyond the paper, DESIGN §6), the last word of the ring's last
    entry, which no entry field uses: one pre-allocated data node,
    malloc-to'd into the slot by an insert before it locks anything
    ({!refill}), so that a split allocates nothing.  The split names
    the spare in its entry, then empties the slot ({!clear_spare});
    until the empty slot persists, the entry owns the node
    ({!recover_spares}). *)

type t

type entry_ref = Pobj.obj = { pool : Nvm.Pool.t; off : int }

type payload =
  | Split of { left : Pmalloc.Pptr.t; right : Pmalloc.Pptr.t; anchor : Key.t }
      (** [left] is the splitting node, [right] the new node (the
          splitting thread's spare), [anchor] the new node's anchor
          key. *)
  | Merge of { left : Pmalloc.Pptr.t; right : Pmalloc.Pptr.t; anchor : Key.t }
      (** [right] (whose anchor is [anchor]) merges into [left]. *)

(** The writer threads a tree takes.  Threads on one pool whose ids
    agree modulo it share a ring, and with it the ring's spare slot;
    a refill or a split that finds its slot shared fails. *)
val max_writers : int

(** Bytes of pool space one ring region needs. *)
val region_size : int

(** [create pools ~base] lays rings out at offset [base] of each
    per-NUMA pool. *)
val create : Nvm.Pool.t array -> base:int -> t

(** [reserve t epoch] returns once the calling thread's ring has a free
    entry.  While it has none the thread waits with its pin in [epoch]
    released (so the caller must hold no lock and no optimistic
    reference).  A writer calls it before it locks anything, for the
    one entry its split or merge may append; it reads a volatile count
    of the ring's entries, no simulated memory. *)
val reserve : t -> Epoch.t -> unit

(** Append to the calling thread's ring, which must have a free entry
    ({!reserve}).  Two fences: fields first, state last. *)
val append : t -> ts:int -> payload -> entry_ref

(** Decode an entry; [None] if the slot is free. *)
val read : entry_ref -> (int * payload) option

(** Mark the entry replayed (persisted). *)
val clear : t -> entry_ref -> unit

(** Scan every ring on every pool — used by recovery, which then clears
    every entry.  Recounts the rings' entries from what it reads. *)
val iter_active : t -> f:(entry_ref -> unit) -> unit

(** Number of active entries, read from the pools (tests,
    [Tree.smo_backlog]). *)
val active_count : t -> int

(** The calling thread's spare data node, read from a volatile copy
    of the slot, no simulated memory.  Fails if the slot is empty: a
    split follows its insert's {!refill}, so another writer sharing the
    slot took the node ({!max_writers}). *)
val spare : t -> Pmalloc.Pptr.t

(** [refill t heap ~size] fills the calling thread's empty spare slot
    with a node of [size] bytes from [heap], malloc-to'd into the slot
    (so the node cannot leak) with a non-temporal store; a full slot is
    left as it is.  The caller holds no lock: the allocation waits for
    the heap's mutex and makes the allocator's four fences.  Fails if
    another writer's refill of the same slot is under way
    ({!max_writers}). *)
val refill : t -> Pmalloc.Heap.t -> size:int -> unit

(** Empty the calling thread's spare slot: store null with a
    non-temporal store ({!Nvm.Pool.ntstore}), without a fence, so that
    the caller's next fence persists it.
    Call it only once an entry naming the spare has persisted. *)
val clear_spare : t -> unit

(** Recovery: rebuild the volatile copy of every spare slot from the
    pools.  A slot whose node [owned] names — a split entry took it,
    and the crash came before the empty slot persisted — is emptied
    and persisted: the node belongs to the entry.  Any other node
    stays its slot's spare. *)
val recover_spares : t -> owned:(Pmalloc.Pptr.t -> bool) -> unit

(** Every node a spare slot holds, read from the media image without
    charging (invariant checks: a slot's store is persisted before the
    operation that made it returns). *)
val spares : t -> Pmalloc.Pptr.t list
