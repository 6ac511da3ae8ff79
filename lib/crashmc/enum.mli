(** Crash-state enumeration.

    Replays a persist trace through the ADR state machine and
    generates every crash image consistent with it:

    - content persisted by a [clwb]+[sfence] pair ("fenced") must
      survive — it forms the base image at each crash point;
    - every snapshot a line took since its last fenced persist (one
      per store, plus staged clwb snapshots) may additionally survive,
      independently per line, modelling arbitrary cache evictions and
      un-fenced flushes draining from the WPQ.

    Crash points are placed just before every fence (where the
    un-fenced survivor set for that epoch is maximal — any mid-epoch
    crash image is one of the per-line snapshot combinations, so this
    placement loses no states) and at the end of the trace.  States
    are deduplicated by content hash over all trace-touched lines
    within one context (see {!iter}); a
    per-point budget bounds the combinatorial survivor space, always
    keeping the pure fenced image, the all-newest image, every
    single-line deviation, and seeded-random combinations. *)

type stats = {
  mutable crash_points : int;
  mutable states : int;  (** distinct states passed to [f] *)
  mutable duplicates : int;  (** hash-dedup suppressions *)
  mutable truncated_points : int;  (** points that hit the budget *)
}

type state = {
  at : int;  (** crash position: before trace event [at] *)
  label : string;  (** human-readable survivor-choice description *)
  restore : unit -> unit;
      (** materialize this image: volatile machine state is dropped
          ({!Nvm.Machine.crash} [Strict]) and every pool's media and
          cache are overwritten with the image.  Only valid while the
          callback runs. *)
}

(** Raise from the callback to abort enumeration early. *)
exception Stop

(** [iter ~trace ~f ()] yields every (deduplicated, budgeted) crash
    state.  The pools are only actually rewritten when the callback
    invokes [state.restore].  [context at] (default [0]) names what a
    state at crash position [at] is checked against (for the harness,
    which ops completed and which were in flight): two images are
    duplicates only with equal contents and equal contexts, so an image
    legal at one crash point is checked again where it may not be. *)
val iter :
  ?budget_per_point:int ->
  ?seed:int64 ->
  ?context:(int -> int) ->
  trace:Trace.t ->
  f:(state -> unit) ->
  unit ->
  stats
