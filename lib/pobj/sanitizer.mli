(** Persist-order sanitizer: a dynamic lint for missing flushes.

    When enabled, every store to a non-volatile pool opens a per-line
    obligation on the storing thread; a [clwb] of the line (by any
    thread) discharges it.  If the storing thread reaches an ordering
    point — a fence, which is also every lock release / pointer
    publish that persists something — with the obligation still open,
    the store could be lost in an arbitrary crash-reordering: it is
    reported with the span-phase path active at the store.

    Deliberately transient stores (version-lock words, selectively
    persisted permutation arrays) are exempted via
    {!with_suppressed} / [~transient] layout fields.  An eADR drain
    discharges like a clwb, and eADR machines emit no fence events, so
    no reports arise there.  This is a
    lightweight lint — {!Crashmc} remains the exhaustive checker; the
    sanitizer's dropped-flush detection is cross-checked against
    crashmc's mutation mode in CI. *)

type report = {
  r_pool : int;
  r_line : int;  (** 64B line index within the pool *)
  r_tid : int;  (** thread whose fence passed the unflushed store *)
  r_stack : string option;  (** span path of the store, e.g. ["smo;alloc"] *)
  r_count : int;  (** occurrences of this (pool, line, stack) *)
}

(** Install on a machine (replacing any previous sanitizer), with
    empty state: a {!Nvm.Machine.subscribe}r to its persist events,
    alongside any other (a crashmc trace).  Only one sanitizer is
    active process-wide. *)
val enable : Nvm.Machine.t -> unit

(** Uninstall if [machine] is the active one. *)
val disable : Nvm.Machine.t -> unit

val active : unit -> bool

(** Reset pending obligations and reports (e.g. between bench runs). *)
val clear : unit -> unit

(** [with_suppressed f]: stores made by the calling thread during [f]
    open no obligations (transient-by-design data). *)
val with_suppressed : (unit -> 'a) -> 'a

(** Aggregated findings, most frequent first. *)
val reports : unit -> report list

(** Total flagged store-lines (sum of report counts). *)
val total : unit -> int

val pp_report : Format.formatter -> report -> unit
