(** Range-partitioned sharded store over any {!Baselines.Index_intf}
    backend.

    A store owns [K] independent index instances ("shards"), each with
    its own heap/pools placed on NUMA domain [i mod numa_count] (the
    backends are built by the caller-supplied factory, which receives
    the target domain; allocation in this simulator is NUMA-local to
    the calling thread, so shard workers pinned to that domain keep
    the shard's data local).  A boundary-key map routes every key to
    exactly one shard.  Shards own disjoint ranges in shard order, so a
    cross-shard [scan] concatenates the per-shard scans and stays
    globally ordered across boundaries.

    {b Durability.}  Every operation goes straight to the owning
    shard's index, and every backend is durably linearizable op by op
    through its own ordered flushes and fences: a write is durable
    when its index call returns.  The store adds no log and no
    persistent state of its own, so {!recover} is just each shard's
    backend recovery. *)

(** One shard's system (see {!Baselines.System}). *)
type backend = Baselines.System.t = {
  b_index : Baselines.Index_intf.index;
  b_recover : unit -> unit;
  b_invariants : unit -> unit;
  b_service : Workload.Runner.service option;
}

type t

(** [create ~machine ~boundaries ~make_backend ()] builds
    [Array.length boundaries + 1] shards; shard [i] owns keys [k] with
    [boundaries.(i-1) <= k < boundaries.(i)].  Boundaries must be
    strictly increasing.  [make_backend ~shard ~numa] receives the
    shard's home domain [numa = shard mod numa_count] for pool
    placement (bulk data placement follows the loading/worker threads,
    which the engine pins to the same domain).

    [log_entries] is vestigial: it sized the per-shard redo log the
    store no longer has, and is accepted and ignored so existing
    callers keep compiling. *)
val create :
  machine:Nvm.Machine.t ->
  boundaries:Pactree.Key.t array ->
  make_backend:(shard:int -> numa:int -> backend) ->
  ?log_entries:int ->
  unit ->
  t

val machine : t -> Nvm.Machine.t

val shard_count : t -> int

val shard_numa : t -> int -> int

(** Owning shard of a key (binary search over the boundary map). *)
val shard_of_key : t -> Pactree.Key.t -> int

(** [boundaries_for ~kind ~keys ~shards] — equi-populated boundary
    keys for a {!Workload.Keyset} of [keys] keys: sorts the scattered
    keyset and cuts it into [shards] contiguous ranges.  Raises
    [Invalid_argument] if [shards < 1] or [keys < shards]. *)
val boundaries_for :
  kind:Workload.Keyset.kind -> keys:int -> shards:int -> Pactree.Key.t array

(** Per-shard background services (shard id, service), for spawning
    pinned to the shard's domain. *)
val services : t -> (int * Workload.Runner.service) list

(** {2 Operations} (routed to the owning shard, index-persisted) *)

val insert : t -> Pactree.Key.t -> int -> unit

val lookup : t -> Pactree.Key.t -> int option

val update : t -> Pactree.Key.t -> int -> bool

val delete : t -> Pactree.Key.t -> bool

(** Ordered cross-shard scan: the per-shard scans from the owning
    shard on, concatenated in shard order and cut to [n], fetching
    successor shards only while the result can still grow. *)
val scan : t -> Pactree.Key.t -> int -> (Pactree.Key.t * int) list

(** The store as a uniform index value (for oracles and the closed-
    loop runner). *)
val as_index : t -> Baselines.Index_intf.index

(** {2 Whole-store maintenance} *)

(** Recover every shard's backend after {!Nvm.Machine.crash}. *)
val recover : t -> unit

val invariants : t -> unit
