(** Slotted data nodes — the data layer's B+-tree-like leaves
    (paper Fig 8, §5.2, §5.5).

    A data node holds up to 64 unsorted key-value pairs plus:
    - an {e anchor key}: the node's immutable lower bound (§4.2);
    - a 64-bit {e valid bitmap}, whose 8-byte atomic update is the
      linearization point of every write (§5.5);
    - a {e fingerprint array} (one byte per slot) for cheap lookups;
    - a {e permutation array} (one cache line) giving sorted order for
      scans — deliberately {e not} persisted (selective persistence,
      §4.4) and rebuilt on demand, validated by a version stamp;
    - next/prev pointers (the data layer is a doubly-linked list), a
      logical-deletion mark, and an optimistic persistent version
      lock.

    Line 0 holds the lock word, the links, the deleted mark, the
    permutation stamp and the fingerprints of slots 56-63; line 1 holds
    the bitmap and the fingerprints of slots 0-55.  A write commits in
    line 1, so a writer's release stores to a line no flush evicted.

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

(** {2 Header fields}

    A node's version lock is the word at its own pool and offset (the
    header's first field): lock it with [Vlock.acquire t.pool t.off]. *)

val bitmap : t -> int64

val next : t -> Pmalloc.Pptr.t

(** [set_next] is an 8B atomic store; caller persists. *)
val set_next : t -> Pmalloc.Pptr.t -> unit

val prev : t -> Pmalloc.Pptr.t

val set_prev : t -> Pmalloc.Pptr.t -> unit

val is_deleted : t -> bool

val set_deleted : t -> bool -> unit

(** The anchor, read with one copy of line 3, where its length is
    stored beside its bytes. *)
val anchor : t -> Key.t

(** [compare_anchor pool off k] = [compare (anchor t) k] for the node
    [t] at [off] in [pool], allocation-free: one copy of the anchor's
    length and bytes (line 3) to a region of the calling thread's
    {!Des.Sched.scratch} buffer that neither a visit's copy
    ({!begin_read}, {!probe}) nor the trie's uses. *)
val compare_anchor : Nvm.Pool.t -> int -> Key.t -> int

(** Offsets for targeted persistence by {!Tree}. *)
val off_next : int

val off_prev : int

val off_deleted : int

(** {2 Initialisation} *)

(** Write a fresh, empty node — lines 0-1 (lock word, links, deleted
    mark, permutation stamp, bitmap, zeroed fingerprints) and the
    anchor's length and bytes (line 3), each with one store — and flush
    the header's XPLine (lines 0-3)
    without a fence: the caller fences before publishing the node.
    Nothing else of the node is read or written, so the memory may
    hold anything before. *)
val init :
  layout -> t -> gen:int -> anchor:Key.t -> next:Pmalloc.Pptr.t -> prev:Pmalloc.Pptr.t -> unit

(** {2 Reading} *)

val value_at : layout -> t -> int -> int

(** {2 Read-only visits}

    A visit copies the node's lines 0-1 (lock word, next/prev, deleted
    mark, permutation stamp, bitmap, fingerprints) into the calling
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

(** Copy line 0 alone (the header fields and the fingerprints of slots
    56-63), unversioned: for visits that probe no key, or whose caller
    holds the lock. *)
val read_header : Nvm.Pool.t -> int -> unit

(** The copied lock word, for {!Vlock.lock_from}. *)
val snap_lock_word : unit -> int

val snap_deleted : unit -> bool

val snap_next : unit -> Pmalloc.Pptr.t

val snap_prev : unit -> Pmalloc.Pptr.t

(** [probe lay pool off k] is the live slot holding [k] according to the
    lines 0-1 copy of the node at [off] in [pool] that {!begin_read}
    took, or [-1]: one
    fingerprint match over the copied lines, then one read of each
    candidate entry (value and key), compared in the buffer.  A hit
    leaves the entry's value for {!found_value}.  Allocation-free. *)
val probe : layout -> Nvm.Pool.t -> int -> Key.t -> int

(** [find lay pool off k] is [probe] on a fresh unversioned copy of
    lines 0-1 of the node at [off] in [pool] (the caller holds the lock
    or validates on its own), inside a [Dnode_scan] span. *)
val find : layout -> Nvm.Pool.t -> int -> Key.t -> int

(** [find_locked] is [find] for a writer whose buffer already holds
    the node's line 0 as it is under the lock the writer holds
    ({!read_header} under the lock, or a copy the lock was taken from
    with {!Vlock.lock_from}): it copies line 1 alone. *)
val find_locked : layout -> Nvm.Pool.t -> int -> Key.t -> int

(** The value of the entry the calling thread's last [probe] or [find]
    hit.  Read it before anything else uses the buffer. *)
val found_value : unit -> int

(** The number of live slots, read like {!bitmap} into the calling
    thread's scratch buffer: allocation-free. *)
val live_count : t -> int

(** Live [(key, value)] pairs in slot order. *)
val live_entries : layout -> t -> (Key.t * int) list

(** {2 Sorted order}

    [sort_live lay t slots] fills [slots] (of length at least
    {!entries}) with the live slots of [t] in key order and returns
    their number.  It reads the bitmap, then the lines of the entry
    region that hold a live entry, in ascending order, each with one
    read of value and key together, into a copy private to the calling
    thread; the [sorted_*] readers and {!init_moved} below take the
    pairs from that copy, until the thread next sorts a node (a
    permutation rebuild included) or runs {!absorb}.  Allocation-free. *)
val sort_live : layout -> t -> int array -> int

(** [sort_locked] is [sort_live] for a writer whose scratch buffer holds
    the node's line 1 as it is under the lock the writer holds (a
    {!find_locked} on [t] left it): the bitmap is taken from there, not
    read again. *)
val sort_locked : layout -> t -> int array -> int

(** An int array of {!entries} private to the calling thread, for
    [sort_live] on a hot path.  A permutation rebuild by the thread
    (any {!scan_from} of a stale node, any write under [persist_perm])
    sorts into it too, and {!absorb} notes its destination slots
    there. *)
val thread_slots : unit -> int array

(** The key of [slot] as the calling thread's last [sort_live] read
    it. *)
val sorted_key : layout -> int -> Key.t

(** [compare (sorted_key lay slot) k], allocation-free. *)
val compare_sorted_key : layout -> int -> Key.t -> int

(** {2 Crash-consistent writes (caller holds the node lock)}

    The writers address the node at [off] in [pool], as a visit does,
    and build no [t].  Each changes the bitmap in the calling thread's
    scratch buffer and stores it back with the access of an 8-byte
    store: no [int64] is boxed.  [insert] reads the bitmap there first;
    [delete], [update] and the [_missed] / [_found] writers take it from
    the copy of lines 0-1 that a {!find} or {!find_locked} under the
    same lock left, so a writer reads the locked node's header once. *)

type write_result = Ok | Full | Absent

(** Insert protocol (§5.5): persist the kv (with its fingerprint when
    that lies in line 0, slots 56-63), then store the fingerprint (slots
    0-55) and atomically set the bitmap bit, and persist line 1: two
    flushes and two fences below slot 56, three flushes from it on.
    [Full] when no slot is free.
    Duplicate keys: callers must check [find] first (PACTree
    semantics: insert of an existing key acts as update). *)
val insert : layout -> Nvm.Pool.t -> int -> Key.t -> int -> write_result

(** [insert] of a key that the calling thread's last find on this
    node, under the lock still held, missed: the free slot comes from
    that find's copy of the bitmap, which is not read again. *)
val insert_missed : layout -> Nvm.Pool.t -> int -> Key.t -> int -> write_result

(** Delete: atomic bitmap bit clear + persist.  [Absent] if missing. *)
val delete : layout -> Nvm.Pool.t -> int -> Key.t -> write_result

(** [delete_found lay pool off slot] is [delete] of the key that the
    calling thread's last find on this node, under the lock still held,
    found at [slot]. *)
val delete_found : layout -> Nvm.Pool.t -> int -> int -> unit

(** Update: out-of-place copy + single atomic bitmap flip when a
    spare slot exists; otherwise an in-place atomic 8B value store.
    [Absent] if the key is missing. *)
val update : layout -> Nvm.Pool.t -> int -> Key.t -> int -> write_result

(** [update_found lay pool off slot k v] is [update] of the key [k] that
    the calling thread's last find on this node, under the lock still
    held, found at [slot]: it neither searches nor reads the bitmap
    again. *)
val update_found : layout -> Nvm.Pool.t -> int -> int -> Key.t -> int -> unit

(** {2 Scans (§5.4)} *)

(** [scan_from lay t ~gen key ~f] iterates live pairs with key >= [key]
    in sorted order, calling [f key value]; stops early when [f]
    returns [false].  Returns [false] if it was stopped early.  The
    order comes from the permutation array when its stamp matches the
    lock word and that word is of generation [gen] (stored since the
    last restart);
    otherwise the reader sorts the live keys and publishes the order
    stamped with the word it read before the sort, if it claims the
    stamp from the stale value it read (one publisher at a time), or
    scans its own sorted copy if it does not.  [f] must not sort a node
    (see {!sort_live}). *)
val scan_from : layout -> t -> gen:int -> Key.t -> f:(Key.t -> int -> bool) -> bool

(** {2 SMO helpers (§5.6), sequencing controlled by {!Tree}} *)

(** [init_moved lay dst ~gen ~anchor ~next ~prev ?pending slots ~pos ~len]
    is {!init} of a node that holds, in slots [0 .. len-1], the pairs in
    [slots.(pos .. pos+len-1)] of the calling thread's last sort, and
    in slot [len] the [pending] pair if there is one.  The entries and
    their fingerprints are built in the thread's copy and written with
    one store each: [dst] gets lines 0-1, the anchor and the entries,
    each once; the header's XPLine and the
    entry lines are flushed, not fenced. *)
val init_moved :
  layout ->
  t ->
  gen:int ->
  anchor:Key.t ->
  next:Pmalloc.Pptr.t ->
  prev:Pmalloc.Pptr.t ->
  ?pending:Key.t * int ->
  int array ->
  pos:int ->
  len:int ->
  unit

(** [clear_moved t slots ~pos ~len] drops [slots.(pos .. pos+len-1)]
    from the bitmap of [t] as the calling thread's last sort of [t]
    read it (the caller has held the lock since), stores the new bitmap
    from the scratch buffer and flushes it without a fence: the
    caller's next fence persists it, and an {!insert_missed} that
    follows under the same lock takes the bitmap from the buffer. *)
val clear_moved : t -> int array -> pos:int -> len:int -> unit

(** Append [src]'s live entries into free slots of [dst]: read [src]'s
    live lines as a sort does, write every entry (and line 0's
    fingerprints if a slot from 56 on is filled), flush them and fence
    once, then store line 1's fingerprints and the bitmap and persist
    the line (two fences in all).  Precondition: enough free slots. *)
val absorb : layout -> src:t -> dst:t -> unit
