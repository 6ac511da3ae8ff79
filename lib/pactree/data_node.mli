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

(** [compare_anchor t k] = [compare (anchor t) k], allocation-free. *)
val compare_anchor : t -> Key.t -> int

(** [compare_anchor_radix t rkey] = [compare (Key.to_radix (anchor t))
    rkey] for a radix key [rkey], allocation-free, at the cost of
    [compare_anchor]. *)
val compare_anchor_radix : t -> string -> int

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

val key_at : layout -> t -> int -> Key.t

val value_at : layout -> t -> int -> int

(** {2 Read-only visits}

    A visit copies the node's lines 0-1 (lock word, bitmap, next/prev,
    deleted mark, anchor length, fingerprints) into the calling
    thread's {!Des.Sched.scratch} buffer with one read and decodes the
    header from the copy; the [snap_*] readers below read the last copy
    this thread took.  Nothing else may use the buffer while the visit
    needs the copy. *)

(** [begin_read t ~gen] copies lines 0-1 like {!Vlock.begin_read}:
    waiting while the copied lock word is locked, it returns the
    version of the copy for a final {!Vlock.validate}. *)
val begin_read : t -> gen:int -> int

(** Copy the header fields alone (line 0), unversioned: for visits that
    probe no key, or whose caller holds the lock. *)
val read_header : t -> unit

val snap_deleted : unit -> bool

val snap_next : unit -> Pmalloc.Pptr.t

val snap_prev : unit -> Pmalloc.Pptr.t

(** [compare (anchor t) k], with the anchor length from the copy and
    the anchor bytes read from [t]. *)
val snap_compare_anchor : t -> Key.t -> int

(** [probe lay t k] is the live slot holding [k] according to the
    lines 0-1 copy of [t] that {!begin_read} took, or [-1]: one
    fingerprint match over the copied line, then one read of each
    candidate entry (value and key), compared in the buffer.  A hit
    leaves the entry's value for {!found_value}.  Allocation-free. *)
val probe : layout -> t -> Key.t -> int

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

(** Live [(key, slot)] pairs sorted by key. *)
val sorted_live : layout -> t -> (Key.t * int) list

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

(** Ensure the permutation array matches the node version; rebuilds it
    (sorting live keys) when stale.  Returns the number of live
    entries. *)
val refresh_permutation : layout -> t -> int

(** [scan_from lay t key ~f] iterates live pairs with key >= [key] in
    sorted order via the permutation array, calling [f key value];
    stops early when [f] returns [false].  Returns [false] if it was
    stopped early. *)
val scan_from : layout -> t -> Key.t -> f:(Key.t -> int -> bool) -> bool

(** {2 SMO helpers (§5.6), sequencing controlled by {!Tree}} *)

(** Copy the given [(key, slot)] pairs of [src] into the empty [dst]
    image (no flushes). *)
val copy_into : layout -> src:t -> dst:t -> (Key.t * int) list -> unit

(** Atomically drop the given slots from the bitmap and persist. *)
val clear_slots : t -> int list -> unit

(** Append [src]'s live entries into free slots of [dst]:
    persist kv+fp, then one atomic bitmap update + persist.
    Precondition: enough free slots. *)
val absorb : layout -> src:t -> dst:t -> unit
