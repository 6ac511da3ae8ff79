(** Per-thread persistent SMO logs (paper §5.6).

    Every data-node split or merge is logged before it mutates the
    data layer; the background updater (or crash recovery) replays
    entries in timestamp order to synchronise the search layer, then
    clears them.  The split entry's auxiliary field doubles as the
    malloc-to destination for the new data node, so an interrupted
    split can never leak it.

    Each simulated thread owns a ring of entries on its NUMA domain's
    log pool; a full ring back-pressures the writer ({!reserve}) until
    the updater catches up. *)

type t

type entry_ref = Pobj.obj = { pool : Nvm.Pool.t; off : int }

type payload =
  | Split of { left : Pmalloc.Pptr.t; anchor : Key.t }
      (** [left] is the splitting node, [anchor] the new node's anchor
          key; the new node pointer lands in the aux field. *)
  | Merge of { left : Pmalloc.Pptr.t; right : Pmalloc.Pptr.t; anchor : Key.t }
      (** [right] (whose anchor is [anchor]) merges into [left]. *)

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

(** Offset, in the entry's pool, of a split entry's new-node field:
    the destination for {!Pmalloc.Heap.alloc_to}. *)
val aux_off : entry_ref -> int

(** Auxiliary pointer value (split: the new node once allocated). *)
val aux : entry_ref -> Pmalloc.Pptr.t

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
