(** Phase-attributed span tracing over the DES simulated clock.

    A recorder is {!install}ed globally; instrumented code then brackets
    work with {!with_phase}, which is a near-free no-op while no
    recorder is installed.  Spans nest (per simulated thread): each
    phase accumulates its {e self} time — child span time is subtracted
    from the parent — so per-phase breakdowns partition the attributed
    time exactly, and the stack paths double as collapsed stacks for
    flamegraph tools.

    Spans attribute simulated time only.  A span's time is its own
    thread's clock (scheduler time plus pending charges), so a thread
    descheduled inside a span is charged its wait there — but never
    another thread's work.  NVM traffic is not split by phase: the
    machine counters are global, so a delta across a span that yields
    would also count other threads' traffic.  Per-op NVM cost comes
    from the run-wide counter window ([Workload.Runner.result.nvm]).

    The [flush_wait] phase is fed by {!Nvm.Machine.set_wait_observer}
    (installed automatically): each fence stall is re-attributed from
    the enclosing phase to [flush_wait] as a leaf span. *)

type phase =
  | Trie_search  (** search-layer (ART) descent *)
  | Dnode_scan  (** data-node search / scan / sibling walk *)
  | Dnode_insert  (** data-node mutation (insert/update/delete slots) *)
  | Smo  (** structure modification: split / merge, incl. logging *)
  | Log_replay  (** background updater replaying the SMO log *)
  | Alloc  (** persistent allocator *)
  | Flush_wait  (** simulated stall in sfence (media write drain) *)
  | Recovery  (** post-crash recovery *)
  | Svc_queue
      (** service worker idle-waiting on its empty shard queue.  This
          is the worker's idle time, not request latency, so it grows
          as the service gets faster at a fixed offered load. *)

val phase_name : phase -> string

val all_phases : phase list

type t

(** [create ?machine ()] — with a machine, {!install} hooks its fence
    stalls into the [flush_wait] phase. *)
val create : ?machine:Nvm.Machine.t -> unit -> t

(** Make [t] the process-wide recorder (replacing any other) and hook
    the machine's fence-wait observer. *)
val install : t -> unit

(** Remove [t] if installed (and its machine hook). *)
val uninstall : t -> unit

(** [with_phase p f] runs [f] inside a span of phase [p] on the
    calling simulated thread (or the host thread outside a
    simulation).  Exception-safe; no-op wrapper when nothing is
    installed. *)
val with_phase : phase -> (unit -> 'a) -> 'a

(** [start p] opens a span of phase [p], like {!with_phase}, and
    returns what {!stop} needs to close it: the two bracket code that
    runs on every simulated access without building a closure.  The
    caller must [stop] the span on every exit, exceptional ones
    included. *)
val start : phase -> t option

val stop : t option -> unit

(** [leaf p seconds] attributes an already-measured duration to phase
    [p] as a child of the current span (used by the fence hook). *)
val leaf : phase -> float -> unit

(** The calling thread's current span path (e.g. ["smo;alloc"]), or
    [None] outside any span / with no recorder installed.  Used by the
    pobj persist-order sanitizer to attribute findings. *)
val current_stack : unit -> string option

(** {2 Reporting} *)

type row = {
  r_phase : phase;
  r_count : int;  (** completed spans *)
  r_seconds : float;  (** self time *)
}

(** One row per phase, fixed taxonomy order. *)
val rows : t -> row list

(** Sum of self times over all phases. *)
val attributed_seconds : t -> float

(** Percentage share of each phase over {!attributed_seconds} — sums
    to ~100 whenever any time was attributed, else all zero. *)
val percentages : t -> (phase * float) list

(** Collapsed stacks: ["smo;alloc" -> self seconds], flamegraph.pl
    compatible once formatted by {!write_collapsed}. *)
val collapsed : t -> (string * float) list

(** Write collapsed stacks ("stack count-in-microseconds" lines). *)
val write_collapsed : t -> string -> unit

val pp_table : Format.formatter -> t -> unit

val to_json : t -> Json.t
