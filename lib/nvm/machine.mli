(** The simulated NVM machine: NUMA topology, CPU cache model and the
    clwb/sfence staging pipeline shared by all pools.

    Persistence model (ADR, paper §2.1): CPU caches are volatile.  A
    store only reaches the persistent media image after [clwb] stages
    a snapshot of its cache line {e and} a subsequent [fence] by the
    same thread completes.  On {!crash}, everything else is lost
    ([Strict]) or survives line-by-line with some probability
    ([Flaky]), which models arbitrary cache evictions and in-flight
    flushes. *)

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

(** [add_pool t p] files [p] as pool [pool_count t]. *)
val add_pool : t -> pool -> unit

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
    [gline]; returns [true] on a hit.  Misses install the tag. *)
val cache_access : t -> int -> bool

val cache_invalidate : t -> int -> unit

(** Where a pool's staged snapshots go: its device, and [apply snaps
    pos line], which persists the 64 B snapshot at [pos] in [snaps]
    into the media image of [line]. *)
type sink = { dev : Device.t; apply : Bytes.t -> int -> int -> unit }

(** [stage t sink ~line ~xpline src pos] queues a snapshot of the 64 B
    at [pos] in [src] (the flushed line's cache content) on the calling
    thread's staging list; it persists at that thread's next [fence].
    [xpline] is the global XPLine id, for write-combining. *)
val stage : t -> sink -> line:int -> xpline:int -> Bytes.t -> int -> unit

(** Register a callback run by {!crash}. *)
val on_crash : t -> (crash_mode -> unit) -> unit

(** {2 Persist tracing (crash-state model checking)}

    When a tracer is installed, every program-visible persistence
    event is reported with enough data to replay the ADR state
    machine offline: stores carry the post-store content of the whole
    64B line, [clwb]s the staged snapshot, fences the staging thread.
    [lib/crashmc] enumerates, from such a trace, every crash image
    consistent with ADR semantics (fenced lines must survive; dirty or
    flushed-but-unfenced lines each survive with any of their
    snapshots). *)

type trace_event =
  | Ev_store of { pool : int; line : int; data : string }
      (** post-store content of the full 64B line *)
  | Ev_clwb of { tid : int; pool : int; line : int; data : string }
      (** line snapshot staged by thread [tid]; durable at its next fence *)
  | Ev_fence of { tid : int }
      (** applies [tid]'s staged snapshots to the media *)
  | Ev_drain of { pool : int; line : int; data : string }
      (** eADR background drain: durable immediately *)

val set_tracer : t -> (trace_event -> unit) option -> unit

val tracer : t -> (trace_event -> unit) option

(** {2 Persist observation (lightweight, for the pobj sanitizer)}

    A second, independent hook: unlike the crashmc tracer it carries
    no line data (cheap enough to leave on during benchmarks) and
    stores carry the storing thread.  [Pe_clwb] is emitted for every
    {e effective} clwb — including ones elided by flush tracking
    (whose persistence obligation is already met) — but {e not} for
    clwbs dropped by {!set_flush_fault}, which model a missing call.
    eADR machines emit no [Pe_fence] (there is nothing to order). *)

type persist_event =
  | Pe_store of { tid : int; pool : int; line : int }
  | Pe_clwb of { tid : int; pool : int; line : int }
  | Pe_fence of { tid : int }

val set_persist_observer : t -> (persist_event -> unit) option -> unit

val persist_observer : t -> (persist_event -> unit) option

(** {2 Fault injection (checker self-tests)} *)

(** [set_flush_fault t (Some k)] silently drops the [k]-th (0-based)
    subsequent [clwb] on this machine — a missing-flush mutation used
    to prove the crash checker catches persistence bugs.  [None]
    disables and resets the counter. *)
val set_flush_fault : t -> int option -> unit

(** Consumes one clwb tick; [true] iff this clwb must be dropped.
    (Called by {!Pool.clwb}.) *)
val flush_faulted : t -> bool

(** [true] once the armed fault has actually dropped a clwb — i.e. the
    mutation was really injected (enough clwbs happened). *)
val flush_fault_fired : t -> bool

(** {2 Flush elision (FliT-style tracking)}

    {!Pool.clwb} always detects redundant flushes — the line is already
    clean on media, or the calling thread staged it and has not stored
    to it since — and counts them in {!Stats}[.flushes_elided].  With
    elision {e off} (default) the redundant clwb is still executed in
    full, so timings are bit-identical to a tracking-free machine and
    the counter reports the elision {e opportunity}.  With elision
    {e on} the redundant clwb skips staging and the media write
    entirely (keeping only its CPU cost and FH4 cache invalidation),
    which changes fence batching and therefore the whole simulated
    schedule. *)

val set_flush_elision : t -> bool -> unit

val flush_elision : t -> bool

(** {2 Observability} *)

(** [set_wait_observer t (Some f)] has every in-simulation [fence]
    report its stall ([f seconds], after the delay completes) — the
    hook behind the observability layer's [flush_wait] phase.  nvm
    stays independent of lib/obs; the recorder installs itself here. *)
val set_wait_observer : t -> (float -> unit) option -> unit

(** {2 Program-visible operations} *)

(** Store fence: drains the calling thread's staged flushes through
    the write-combining cost model and applies them to the media
    images.  Blocks (simulated) until the media writes complete. *)
val fence : t -> unit

(** Power-failure / SIGKILL: volatile state (CPU caches, staged
    flushes, device buffers, DRAM pools) is lost; each pool's cache
    image is reset to its media image per [crash_mode]. *)
val crash : t -> crash_mode -> unit
