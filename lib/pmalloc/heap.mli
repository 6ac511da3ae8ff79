(** NUMA-aware persistent memory heaps (paper §4.5, §5.8, GS1/GS2).

    A heap is a set of per-NUMA NVM pools with a segregated-size-class
    allocator in each.  Two allocator kinds model the paper's GS1
    comparison:

    - [Pmdk]: crash consistent.  Heap metadata (bump pointer, free
      lists, object headers) lives on NVM and every mutation is
      guarded by a one-line undo/redo log that is flushed and fenced,
      reproducing the PMDK allocator's multiple-flush cost per
      alloc/free.  Supports [alloc_to] ("malloc-to" semantics):
      allocation and persisting the destination pointer are atomic
      with respect to crashes, preventing persistent memory leaks.
    - [Volatile_meta]: the "modified Jemalloc" baseline — objects live
      on NVM but heap metadata is volatile and not crash consistent;
      allocation does no NVM writes at all.

    Allocation is NUMA-local by default: the pool of the calling
    simulated thread's NUMA domain is used (GS2). *)

type kind = Pmdk | Volatile_meta

type t

type alloc_stats = {
  mutable allocs : int;
  mutable frees : int;
  mutable alloc_bytes : int;
}

(** [create machine ~kind ~name ~numa_pools ()] builds a heap of
    [numa_pools] pools, each bounded by [capacity] bytes (default
    {!Nvm.Pool.max_capacity}), pool [i] living on NUMA domain [i].  Pass [numa_pools:1] for the paper's
    single-socket-heap configuration (the per-NUMA-pool ablation of
    Fig 12).  [volatile_pool] makes the backing pools DRAM (for
    DRAM-placed search layers). *)
val create :
  Nvm.Machine.t ->
  ?volatile_pool:bool ->
  kind:kind ->
  name:string ->
  numa_pools:int ->
  ?capacity:int ->
  unit ->
  t

val machine : t -> Nvm.Machine.t

val stats : t -> alloc_stats

(** [alloc t ?numa size] returns a persistent pointer to [size] fresh
    bytes (8-aligned; 64-aligned for sizes >= 64).  [numa] defaults to
    the calling thread's domain. *)
val alloc : t -> ?numa:int -> int -> Pptr.t

(** [alloc_to t ~size ~dest_pool ~dest_off] allocates and atomically
    persists the new pointer into [dest_pool] at [dest_off]; after a
    crash either the destination holds the new object or the
    allocation never happened (no leak).  With [~nt:true] the pointer
    is stored non-temporally (around the CPU cache, then fenced), so a
    destination line that is not cached costs no read for ownership
    while the allocation holds its pool's mutex; the line is left
    uncached. *)
val alloc_to :
  t -> ?numa:int -> ?nt:bool -> size:int -> dest_pool:Nvm.Pool.t -> dest_off:int -> unit -> Pptr.t

val free : t -> Pptr.t -> unit

(** [set_fill t (Some c)] has every later allocation of [t] hand out
    its [size] bytes set to [c] in both the cache and the media image,
    as memory that an earlier use left behind: for tests of code that
    must not read what it has not written.  [None], the default, hands
    blocks out as they are. *)
val set_fill : t -> char option -> unit

(** Resolve a pointer produced by this heap. *)
val pool : t -> Pptr.t -> Nvm.Pool.t

val pool_by_numa : t -> int -> Nvm.Pool.t

(** Post-crash recovery: completes or rolls back any allocator
    operation that was interrupted mid-flight ([Pmdk]), then rebuilds
    the volatile state from the pools as {!create} builds it: fresh
    per-pool mutexes (a thread killed by the crash may have held
    one), and for [Volatile_meta] an empty heap (its metadata did not
    survive — that is the point of the GS1 comparison). *)
val recover : t -> unit

(** [live_blocks t ~size] is every block of [t] allocated and not
    freed, for a heap whose every allocation has [size]'s size class
    (raises [Invalid_argument] on a block of another class): leak
    checks.  It reads the pools' media images, bypassing cost
    accounting, so call it when no allocation or free is in flight. *)
val live_blocks : t -> size:int -> Pptr.t list

(** Bytes still allocatable in the pool for [numa]. *)
val remaining : t -> numa:int -> int
