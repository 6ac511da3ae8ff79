(** A byte-addressable NVM (or DRAM) pool.

    A pool is a contiguous region backed by one NUMA device, exposed
    through offset-based typed accessors.  Two byte images exist: the
    {e cache} image (what the program reads and writes) and the
    {e media} image (what survives a crash); [clwb]+[fence] move
    64-byte lines from the former to the latter (see {!Machine}).

    Every access is charged through the machine's cost model: CPU
    cache hits are cheap, misses become XPLine-granularity device
    traffic with NUMA and coherence effects.  DRAM pools
    ([volatile:true]) cost DRAM latency, ignore flushes, and lose all
    content on crash — they model the "internal nodes in DRAM" designs
    the paper compares against.

    The capacity is a bound, not a reservation: the images start small
    and grow by doubling to cover the highest byte stored, flushed or
    drained.  A read wholly past the image sees zeros and allocates
    nothing; an access outside [\[0, capacity)] raises
    [Invalid_argument]. *)

type t

(** 2{^40} bytes, the offset range of a persistent pointer: the
    capacity of every pool that is not sized by its contents. *)
val max_capacity : int

(** [create machine ~name ~numa ~capacity] creates a pool (capacity is
    rounded up to a 256B multiple) with images of at most 128 KB.
    [volatile] defaults to [false]. *)
val create :
  Machine.t -> ?volatile:bool -> name:string -> numa:int -> capacity:int -> unit -> t

val id : t -> int

val name : t -> string

val numa : t -> int

val capacity : t -> int

val is_volatile : t -> bool

val machine : t -> Machine.t

(** {2 The machine's pool table}

    Every pool is filed in its machine's table under its id (see
    {!Machine.pool_count}); a persistent pointer names a pool by that
    id. *)

(** [of_id machine id] is pool [id] of [machine]: an array index that
    allocates nothing.  Raises [Invalid_argument] for an unknown id. *)
val of_id : Machine.t -> int -> t

(** All pools of [machine], in creation (= id) order. *)
val all : Machine.t -> t list

(** {2 Typed access (little-endian)}

    [read_int]/[write_int] move OCaml 63-bit ints through an 8-byte
    slot; 8-byte accesses must be 8-byte aligned so that they are
    single-line atomic, matching the paper's reliance on 8B atomic
    stores as linearization points. *)

val read_u8 : t -> int -> int

val write_u8 : t -> int -> int -> unit

val read_u16 : t -> int -> int

val write_u16 : t -> int -> int -> unit

val read_u32 : t -> int -> int

val write_u32 : t -> int -> int -> unit

val read_int : t -> int -> int

val write_int : t -> int -> int -> unit

(** [write_int_transient] is [write_int] of a word that no crash needs
    (a lock word voided by the next generation, a cache stamp): the
    store is charged and dirties its line like any other, but reaches
    no persist-event subscriber ({!Machine.subscribe}), so the
    persist-order sanitizer opens no obligation for it and a crashmc
    trace takes no snapshot of the line for it.  A line that is never
    flushed and holds such a word (a data node's lock line) then adds
    no crash states per lock taken. *)
val write_int_transient : t -> int -> int -> unit

val read_int64 : t -> int -> int64

val write_int64 : t -> int -> int64 -> unit

(** [read_string p off len] copies [len] bytes out of the pool. *)
val read_string : t -> int -> int -> string

val write_string : t -> int -> string -> unit

(** [blit_to_bytes p off buf pos len] avoids the allocation of
    [read_string]. *)
val blit_to_bytes : t -> int -> bytes -> int -> int -> unit

(** [blit_from_bytes p off buf pos len] stores [len] bytes of [buf]
    from [pos] at [off]: [write_string] without a string. *)
val blit_from_bytes : t -> int -> bytes -> int -> int -> unit

(** Zero [len] bytes at [off]. *)
val fill_zero : t -> int -> int -> unit

(** [compare_string p off len s] compares the [len] bytes at [off]
    with [s] lexicographically (allocation-free). *)
val compare_string : t -> int -> int -> string -> int

(** [compare_terminated p off len s] compares the [len] bytes at [off]
    with [s] followed by a 0 byte (a trie key and the terminator a trie
    reads after it), at the cost of [compare_string]. *)
val compare_terminated : t -> int -> int -> string -> int

(** [prefetch p off len] is a software prefetch (prefetcht0) of each
    line under [\[off, off+len)], which may cover 1 to
    {!Config.fill_buffers} lines (else [Invalid_argument]).  It leaves
    alone a line already cached or in flight; so on eADR, where a clwb
    leaves its line cached, it does nothing after one.  For each XPLine
    the range touches with a line not cached, it books one device read
    of the XPLine (a DRAM latency on a volatile pool) at the calling
    thread's clock, without delaying the thread, and puts each such
    line in its CPU-cache slot with that read's completion as its
    arrival (see {!Machine.cache_access}): the lines of one XPLine
    arrive with it.  Each line it fetches charges a cache hit's cost
    for the instruction and counts in {!Stats.t.sw_prefetches}.  It is
    not a line access: it counts no hit or miss and no logical byte,
    and emits no persist event.  Outside a simulation the lines arrive
    at once. *)
val prefetch : t -> int -> int -> unit

(** {2 Persistence} *)

(** [clwb p off] stages the 64B line containing [off] for persistence
    at the caller's next [fence].  Models the cache-line invalidation
    of current-generation clwb (FH4).

    FliT-style flush tracking: a redundant clwb — the line is already
    identical to the media image, or already staged by the calling
    thread with no store since — is counted in
    {!Stats.t.flushes_elided} and still executed in full.  The count is the elision opportunity: such a
    flush's obligation is already met by the media state or by the
    caller's pending fence. *)
val clwb : t -> int -> unit

(** [flush_range p off len] issues [clwb] for each line overlapping
    [\[off, off+len)]. *)
val flush_range : t -> int -> int -> unit

(** [ntstore p off buf pos len] stores [len] bytes of [buf] from [pos]
    at [off] with a non-temporal store (movnt): the bytes go around the
    CPU cache, so no line is charged, none is read for ownership and
    none enters the cache.  Each line under the range is then staged
    exactly as {!clwb} stages it — the same [Clwb] event after the
    range's [Store] events, the same flush accounting and CPU cost, the
    same eADR drain — and is out of the CPU cache afterwards, so the
    next access to it misses.  For a store into a line that the writer
    flushes before it reads the line again, this is the store + clwb
    of the range with no read for ownership. *)
val ntstore : t -> int -> bytes -> int -> int -> unit

(** Store fence (delegates to {!Machine.fence}). *)
val fence : t -> unit

(** [persist p off len] = [flush_range] + [fence]. *)
val persist : t -> int -> int -> unit

(** {2 Testing / inspection} *)

(** [fill_stale p off len c] sets [len] bytes at [off] to [c] in both
    the cache and the media image, bypassing cost accounting and the
    persist events: the bytes read as what an earlier use of the memory
    left there, durable already. *)
val fill_stale : t -> int -> int -> char -> unit

(** Read directly from the media image, bypassing cost accounting —
    for tests that check what would survive a crash. *)
val media_read_int : t -> int -> int

(** [line_content p line] copies the 64 B cache content of line
    [line] (a line index, not an offset), bypassing cost accounting and
    the CPU-cache model — for persist-event subscribers, which must not
    perturb the simulation.  Every line a persist event names lies in
    the image. *)
val line_content : t -> int -> string

(** A copy of the media image's prefix (empty for a volatile pool);
    the bytes past it are zeros. *)
val media_image : t -> Bytes.t

(** [restore t img] installs media image [img], of any length up to
    the capacity and zeros beyond it (cache := media, dirty and
    staging state cleared), as if the machine had restarted from it.
    A volatile pool ignores [img] and zeroes its cache. *)
val restore : t -> Bytes.t -> unit

(** Host bytes the pool's images hold: cache, media, dirty bitset and
    staging array. *)
val resident_bytes : t -> int

(** The CPU-cache slot of the line containing [off] (see
    {!Machine.cache_slot}). *)
val cache_slot : t -> int -> int

(** True if the 64B line containing [off] differs between cache and
    media image. *)
val line_is_dirty : t -> int -> bool

(** [cas_int p off ~expected v] atomically compares the 8-byte slot at
    [off] with [expected] and stores [v] on match (8-byte aligned).
    The access cost is charged before the compare; the
    compare-and-swap itself is indivisible, like a hardware CAS. *)
val cas_int : t -> int -> expected:int -> int -> bool

(** [cas_int] whose store, if it happens, is transient as
    {!write_int_transient}'s. *)
val cas_int_transient : t -> int -> expected:int -> int -> bool
