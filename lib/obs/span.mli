(** Phase-attributed span tracing over the DES simulated clock.

    A recorder is {!install}ed globally; instrumented code then brackets
    work with {!with_phase}, which is a near-free no-op while no
    recorder is installed.  Spans nest (per simulated thread): each
    phase accumulates its {e self} time — child span time is subtracted
    from the parent — so per-phase breakdowns partition the attributed
    time exactly, and the stack paths double as collapsed stacks for
    flamegraph tools.

    At every span boundary the machine's NVM counters are snapshotted
    and deltaed, attributing media reads/writes, RMW and directory
    traffic, flushes and fences to the phase that incurred them
    (self-attribution, like time).  With several simulated threads the
    clock and the machine counters advance while a span's thread is
    descheduled, so concurrent runs attribute a thread's {e wait}
    (and any traffic other threads generate meanwhile) to the phase it
    is waiting in — the convention profilers call wall-clock
    attribution.  Single-threaded runs are exact.

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
  | Svc_queue  (** service worker idle-waiting on its shard queue *)
  | Svc_batch  (** service group commit: log append + fence + apply *)

val phase_name : phase -> string

val all_phases : phase list

type t

(** [create ?machine ()] — with a machine, span boundaries delta its
    {!Nvm.Machine.total_stats}; without, attribution is time-only. *)
val create : ?machine:Nvm.Machine.t -> unit -> t

(** Make [t] the process-wide recorder (replacing any other) and hook
    the machine's fence-wait observer. *)
val install : t -> unit

(** Remove [t] if installed (and its machine hook). *)
val uninstall : t -> unit

val installed : unit -> t option

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
  r_nvm : Nvm.Stats.t;  (** self NVM traffic (zero when time-only) *)
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

val reset : t -> unit
