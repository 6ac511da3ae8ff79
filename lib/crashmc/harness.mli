(** Recovery replay harness: record a persist trace of a single-writer
    op sequence, enumerate every (budgeted) crash image, materialise
    each one, run the index's recovery and check durable
    linearizability against the {!Oracle}. *)

type violation = { v_at : int; v_label : string; v_msg : string }

type report = {
  sut : string;  (** the system's name *)
  ops : int;
  trace_events : int;
  stats : Enum.stats;
  checked : int;  (** states materialised and checked *)
  violations : violation list;
}

val ok : report -> bool

val pp_report : Format.formatter -> report -> unit

(** [n] deterministic fresh-key inserts (drives node splits). *)
val insert_workload : int -> Oracle.op list

(** Seed-deterministic insert/delete mix (~25% deletes of live keys). *)
val mixed_workload : seed:int -> int -> Oracle.op list

(** Drive [ops] against the system under test [sut], which lives on
    [machine], while recording; then sweep crash states.  Each state
    is checked after [sut.b_recover], which builds the system's
    volatile state anew, so nothing left from the recorded run (a
    queued SMO, an epoch-deferred free) acts on a restored image;
    [sut.b_invariants] is the structural check.
    Stops early after [max_violations] violations or [max_states]
    checked states.  The system is consumed: [machine]'s pools end up
    holding the last materialised image.  Every materialised state
    restores each pool's image prefix, which grows with the data the
    trace stores.  [name] labels the report. *)
val run :
  ?budget_per_point:int ->
  ?max_states:int ->
  ?max_violations:int ->
  ?seed:int ->
  name:string ->
  machine:Nvm.Machine.t ->
  sut:Baselines.System.t ->
  ops:Oracle.op list ->
  unit ->
  report
