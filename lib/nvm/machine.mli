(** The simulated NVM machine: NUMA topology, CPU cache model and the
    clwb/sfence staging pipeline shared by all pools.

    Persistence model (ADR, paper §2.1): CPU caches are volatile.  A
    store only reaches the persistent media image after [clwb] stages
    a snapshot of its cache line {e and} a subsequent [fence] by the
    same thread completes.  On {!crash}, everything else is lost
    ([Strict]) or survives line-by-line with some probability
    ([Flaky]), which models arbitrary cache evictions and in-flight
    flushes.

    Every store, clwb, fence and eADR drain is one {!persist_event};
    the checkers of the persist order (the crashmc trace recorder, the
    pobj sanitizer) {!subscribe} to that one stream. *)

type t

(** [Strict]: only fenced flushes survive a crash — catches missing
    [clwb]/[fence].  [Flaky (p, rng)]: additionally every dirty line
    independently survives with probability [p] — models cache
    evictions and un-fenced flushes, catching ordering bugs. *)
type crash_mode = Strict | Flaky of float * Des.Rng.t

val create :
  ?profile:Config.profile -> ?protocol:Config.protocol -> numa_count:int -> unit -> t

val profile : t -> Config.profile

val protocol : t -> Config.protocol

val numa_count : t -> int

val device : t -> int -> Device.t

(** Machine-level counters (flushes, fences, CPU cache).  Device
    traffic lives in each device's {!Device.stats}. *)
val stats : t -> Stats.t

(** Sum of machine-level and all device counters. *)
val total_stats : t -> Stats.t

(** {2 Used by {!Pool}} *)

(** The machine's pool table holds values of this type; {!Pool}, which
    depends on this module, adds the one constructor that carries a
    pool. *)
type pool = ..

(** Pools are numbered 0, 1, 2, ... in creation order, separately on
    every machine, so a simulation never depends on what else the
    process has run.  [pool_count t] is the id of the next pool. *)
val pool_count : t -> int

(** Where a pool's staged snapshots go: the NUMA domain of its device,
    and [apply snaps pos line], which persists the 64 B snapshot at
    [pos] in [snaps] into the media image of [line]. *)
type sink = { numa : int; apply : Bytes.t -> int -> int -> unit }

(** [add_pool t p sink] files [p] as pool [pool_count t], whose staged
    snapshots go to [sink]. *)
val add_pool : t -> pool -> sink -> unit

(** [pool t id] is pool [id] of [t], an array index.  Raises
    [Invalid_argument] for an id [t] has not issued. *)
val pool : t -> int -> pool

(** [cache_slot t gline] is the CPU-cache slot of global line [gline]
    (pool id in bits 40 and up, line in the pool below).  The cache is
    physically indexed: consecutive lines of a pool take consecutive
    slots, starting from a slot that a multiplicative hash draws from
    every bit of the pool id. *)
val cache_slot : t -> int -> int

(** [cache_access t gline] models a CPU cache access to global line
    [gline]; returns [true] on a hit.  Misses install the tag.  A hit
    on a line that a software prefetch ({!prefetch_fill}) still has in
    flight at the calling thread's clock (its time plus pending charge)
    first delays the thread to the arrival, and counts in
    {!Stats.t.late_hits} as well. *)
val cache_access : t -> int -> bool

(** Invalidate [gline]'s slot if it holds [gline], in flight or not. *)
val cache_invalidate : t -> int -> unit

(** [cached t gline]: [gline]'s tag is in its slot, arrived or in
    flight; no access is charged or counted. *)
val cached : t -> int -> bool

(** [prefetch_fill t gline c] puts [gline]'s tag in its slot, with its
    arrival at [c.at] ([0.] for at once), and counts a software
    prefetch.  Called by {!Pool.prefetch}, which books the fetch of the
    line's XPLine. *)
val prefetch_fill : t -> int -> Des.Sched.interval -> unit

(** [stage t ~pool ~line ~xpline src pos] queues a snapshot of the
    64 B at [pos] in [src] (the flushed line's cache content) of [line]
    of pool [pool] on the calling thread's staging list; it persists,
    through the pool's sink, at that thread's next [fence].  [xpline] is
    the global XPLine id, for write-combining. *)
val stage : t -> pool:int -> line:int -> xpline:int -> Bytes.t -> int -> unit

(** Register a callback run by {!crash}. *)
val on_crash : t -> (crash_mode -> unit) -> unit

(** {2 Persist events}

    Every program-visible persistence fact is reported once, to every
    subscriber, in program order: a store to a line of a non-volatile
    pool, a [clwb] of such a line, a [fence] and, on eADR machines, a
    background drain.  No event carries line data; a subscriber that
    needs it reads the pool at the event (the crashmc trace recorder
    does).  Emitting allocates nothing while nobody subscribes.

    [Clwb] is emitted for every clwb, redundant ones included, but
    {e not} for clwbs dropped by {!set_flush_fault}, which model a
    missing call.  An eADR clwb emits [Drain] instead, redundant or
    not, and eADR machines emit no [Fence] (there is nothing to
    order). *)

type persist_event =
  | Store of { tid : int; pool : int; line : int }
      (** thread [tid] stored to [line] of pool [pool] *)
  | Clwb of { tid : int; pool : int; line : int }
      (** [tid] flushed the line; durable at its next fence *)
  | Fence of { tid : int }  (** persists [tid]'s staged lines *)
  | Drain of { tid : int; pool : int; line : int }
      (** eADR: the line reached the media at [tid]'s clwb *)

(** [subscribe t f] calls [f] on every later persist event of [t],
    after the subscribers before it; it returns the function that
    unsubscribes [f]. *)
val subscribe : t -> (persist_event -> unit) -> unit -> unit

(** [true] while anybody subscribes.  {!Pool} tests it before it
    builds an event. *)
val observed : t -> bool

(** Deliver an event to the subscribers (called by {!Pool}). *)
val emit : t -> persist_event -> unit

(** {2 Fault injection (checker self-tests)} *)

(** [set_flush_fault t (Some k)] silently drops the first subsequent
    [clwb] on this machine, from the [k]-th (0-based) on, that is not
    redundant — a missing-flush mutation used to prove the crash
    checker catches persistence bugs.  A redundant clwb (see
    {!Pool.clwb}: its line is clean, or staged by the same thread with
    no store since) is never dropped, since dropping it changes no
    crash state.  [None] disables and resets the counter. *)
val set_flush_fault : t -> int option -> unit

(** Consumes one clwb tick; [true] iff this clwb must be dropped.
    [redundant] is the clwb's redundancy as {!Pool.clwb} counts it
    for [flushes_elided].  (Called by {!Pool.clwb}.) *)
val flush_faulted : t -> redundant:bool -> bool

(** The tick of the clwb the armed fault dropped: the [k] of
    {!set_flush_fault}, or later by the redundant clwbs it passed
    over; [-1] until it has dropped one, i.e. while the mutation is
    not injected (too few clwbs happened). *)
val flush_dropped : t -> int

(** The clwbs counted since the last [set_flush_fault t (Some _)]: with
    [Some max_int] nothing is dropped, and the count is the number of
    clwbs a run makes, over which a fault can be placed. *)
val flush_ticks : t -> int

(** {2 Observability} *)

(** [set_wait_observer t (Some f)] has every in-simulation [fence]
    report its stall ([f seconds], after the delay completes) — the
    hook behind the observability layer's [flush_wait] phase.  nvm
    stays independent of lib/obs; the recorder installs itself here. *)
val set_wait_observer : t -> (float -> unit) option -> unit

(** {2 Program-visible operations} *)

(** Store fence: drains the calling thread's staged flushes through
    the write-combining cost model and applies them to the media
    images.  Blocks (simulated) until the media writes complete.

    The staged lines are grouped by (device NUMA domain, XPLine), one
    media write per group, and the groups are written in a fixed
    order (it picks device channels under saturation): by bucket
    [Hashtbl.hash (numa, xpline) land (size - 1)] ascending, where
    [size] starts at 16 and doubles while there are more than
    [2 * size] groups, and newest group first within a bucket. *)
val fence : t -> unit

(** [fence_order lines] groups staged lines, given as [(numa, xpline)]
    in clwb order, as [fence] does, and lists the groups
    [(numa, xpline, lines)] in the order [fence] writes them. *)
val fence_order : (int * int) list -> (int * int * int) list

(** Power-failure / SIGKILL: volatile state (CPU caches and the lines
    still in flight to them, staged flushes, device buffers, DRAM
    pools) is lost; each pool's cache
    image is reset to its media image per [crash_mode]. *)
val crash : t -> crash_mode -> unit
