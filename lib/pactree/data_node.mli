(** Slotted data nodes — the data layer's B+-tree-like leaves
    (paper Fig 8, §5.2, §5.5).

    A data node holds up to 64 unsorted key-value pairs plus:
    - an {e anchor key}: the node's immutable lower bound (§4.2);
    - a 64-bit {e valid bitmap}, whose 8-byte atomic update is the
      linearization point of every write (§5.5);
    - a {e fingerprint array} (one cache line) for cheap lookups;
    - a {e permutation array} (one cache line) giving sorted order for
      scans — deliberately {e not} persisted (selective persistence,
      §4.4) and rebuilt on demand, validated by a version stamp;
    - next/prev pointers (the data layer is a doubly-linked list), a
      logical-deletion mark, and an optimistic persistent version
      lock.

    This module implements field access and the crash-consistent
    write protocols {e within} one node; locking and structural
    modifications are orchestrated by {!Tree}. *)

type layout = {
  inline : int;  (** inline key capacity: 8 (int keys) or 32 (string) *)
  stride : int;
  node_size : int;
  persist_perm : bool;
      (** ablation switch: [true] persists the permutation array on
          every write (the paper's "- selective persistence") *)
}

(** [layout ~key_inline] with [key_inline] 8 or 32. *)
val layout : ?persist_perm:bool -> key_inline:int -> unit -> layout

(** Number of key-value slots per node. *)
val entries : int

type t = Pobj.obj = { pool : Nvm.Pool.t; off : int }

(** [of_ptr machine p]: the node persistent pointer [p] names on
    [machine]. *)
val of_ptr : Nvm.Machine.t -> Pmalloc.Pptr.t -> t

val to_ptr : t -> Pmalloc.Pptr.t

val equal : t -> t -> bool

(** {2 Header fields} *)

val lock_handle : t -> Vlock.handle

val bitmap : t -> int64

val next : t -> Pmalloc.Pptr.t

(** [set_next] is an 8B atomic store; caller persists. *)
val set_next : t -> Pmalloc.Pptr.t -> unit

val prev : t -> Pmalloc.Pptr.t

val set_prev : t -> Pmalloc.Pptr.t -> unit

val is_deleted : t -> bool

val set_deleted : t -> bool -> unit

val anchor : t -> Key.t

(** [compare_anchor pool off k] = [compare (anchor t) k] for the node
    [t] at [off] in [pool], allocation-free. *)
val compare_anchor : Nvm.Pool.t -> int -> Key.t -> int

(** [compare_anchor_radix pool off rkey] = [compare (Key.to_radix
    (anchor t)) rkey] for the node [t] at [off] in [pool] and a radix
    key [rkey], allocation-free, at the cost of [compare_anchor]. *)
val compare_anchor_radix : Nvm.Pool.t -> int -> string -> int

(** Offsets for targeted persistence by {!Tree}. *)
val off_next : int

val off_prev : int

val off_deleted : int

(** {2 Initialisation} *)

(** Write a fresh node image (no flushes — caller persists the whole
    node before publishing it). *)
val init :
  layout -> t -> gen:int -> anchor:Key.t -> next:Pmalloc.Pptr.t -> prev:Pmalloc.Pptr.t -> unit

(** {2 Reading} *)

val value_at : layout -> t -> int -> int

(** {2 Read-only visits}

    A visit copies the node's lines 0-1 (lock word, bitmap, next/prev,
    deleted mark, anchor length, fingerprints) into the calling
    thread's {!Des.Sched.scratch} buffer with one read and decodes the
    header from the copy; the [snap_*] readers below read the last copy
    this thread took.  Nothing else may use the buffer while the visit
    needs the copy.  A visit addresses the node by its pool and offset,
    as {!Vlock.begin_read_snapshot} does, and builds no [t]. *)

(** [begin_read pool off ~gen] copies lines 0-1 of the node at [off] in
    [pool] like {!Vlock.begin_read}: waiting while the copied lock word
    is locked, it returns the version of the copy for a final
    {!Vlock.validate}. *)
val begin_read : Nvm.Pool.t -> int -> gen:int -> int

(** Copy the header fields alone (line 0), unversioned: for visits that
    probe no key, or whose caller holds the lock. *)
val read_header : Nvm.Pool.t -> int -> unit

val snap_deleted : unit -> bool

val snap_next : unit -> Pmalloc.Pptr.t

val snap_prev : unit -> Pmalloc.Pptr.t

(** [compare (anchor t) k] for the node [t] at [off] in [pool], with the
    anchor length from the copy and the anchor bytes read from [t]. *)
val snap_compare_anchor : Nvm.Pool.t -> int -> Key.t -> int

(** [probe lay pool off k] is the live slot holding [k] according to the
    lines 0-1 copy of the node at [off] in [pool] that {!begin_read}
    took, or [-1]: one
    fingerprint match over the copied line, then one read of each
    candidate entry (value and key), compared in the buffer.  A hit
    leaves the entry's value for {!found_value}.  Allocation-free. *)
val probe : layout -> Nvm.Pool.t -> int -> Key.t -> int

(** [find lay t k] is [probe] on a fresh unversioned copy of lines 0-1
    (the caller holds the lock or validates on its own), inside a
    [Dnode_scan] span. *)
val find : layout -> t -> Key.t -> int

(** The value of the entry the calling thread's last [probe] or [find]
    hit.  Read it before anything else uses the buffer. *)
val found_value : unit -> int

val live_count : t -> int

(** Live [(key, value)] pairs in slot order. *)
val live_entries : layout -> t -> (Key.t * int) list

(** {2 Sorted order}

    [sort_live lay t slots] fills [slots] (of length at least
    {!entries}) with the live slots of [t] in key order and returns
    their number.  It reads the bitmap, then each live key once, in
    descending slot order, into a copy private to the calling thread;
    the [sorted_*] readers and {!copy_into} below take the keys from
    that copy, until the thread next sorts a node (a permutation
    rebuild included) or runs {!absorb}.  Allocation-free. *)
val sort_live : layout -> t -> int array -> int

(** An int array of {!entries} private to the calling thread, for
    [sort_live] on a hot path.  A permutation rebuild by the thread
    (any {!scan_from} of a stale node, any write under [persist_perm])
    sorts into it too. *)
val thread_slots : unit -> int array

(** The key of [slot] as the calling thread's last [sort_live] read
    it. *)
val sorted_key : layout -> int -> Key.t

(** [compare (sorted_key lay slot) k], allocation-free. *)
val compare_sorted_key : layout -> int -> Key.t -> int

(** [slot_mask slots ~pos ~len]: the bitmap of
    [slots.(pos .. pos+len-1)]. *)
val slot_mask : int array -> pos:int -> len:int -> int64

(** {2 Crash-consistent writes (caller holds the node lock)} *)

type write_result = Ok | Full | Absent

(** Insert protocol (§5.5): persist kv+fingerprint, then atomically
    set the bitmap bit and persist it.  [Full] when no slot is free.
    Duplicate keys: callers must check [find] first (PACTree
    semantics: insert of an existing key acts as update). *)
val insert : layout -> t -> Key.t -> int -> write_result

(** Delete: atomic bitmap bit clear + persist.  [Absent] if missing. *)
val delete : layout -> t -> Key.t -> write_result

(** Update: out-of-place copy + single atomic bitmap flip when a
    spare slot exists; otherwise an in-place atomic 8B value store.
    [Absent] if the key is missing. *)
val update : layout -> t -> Key.t -> int -> write_result

(** {2 Scans (§5.4)} *)

(** [scan_from lay t key ~f] iterates live pairs with key >= [key] in
    sorted order, calling [f key value]; stops early when [f] returns
    [false].  Returns [false] if it was stopped early.  The order comes
    from the permutation array when its stamp matches the lock word;
    otherwise the reader sorts the live keys and publishes the order
    stamped with the word it read before the sort, if it claims the
    stamp from the stale value it read (one publisher at a time), or
    scans its own sorted copy if it does not.  [f] must not sort a node
    (see {!sort_live}). *)
val scan_from : layout -> t -> Key.t -> f:(Key.t -> int -> bool) -> bool

(** {2 SMO helpers (§5.6), sequencing controlled by {!Tree}} *)

(** [copy_into lay ~src ~dst slots ~pos ~len] copies the pairs of
    [src] in [slots.(pos .. pos+len-1)] into slots [0 .. len-1] of the
    empty [dst] image (no flushes): each value read from [src], each
    key from the calling thread's last {!sort_live} of [src]. *)
val copy_into : layout -> src:t -> dst:t -> int array -> pos:int -> len:int -> unit

(** Atomically drop the slots of the given bitmap from the bitmap and
    persist. *)
val clear_slots : t -> int64 -> unit

(** Append [src]'s live entries into free slots of [dst]:
    persist kv+fp, then one atomic bitmap update + persist.
    Precondition: enough free slots. *)
val absorb : layout -> src:t -> dst:t -> unit
