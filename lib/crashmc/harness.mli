(** Recovery replay harness: record a persist trace of a single-writer
    op sequence, enumerate every (budgeted) crash image, materialise
    each one, run the index's recovery and check durable
    linearizability against the {!Oracle}. *)

type violation = { v_at : int; v_label : string; v_msg : string }

type report = {
  sut : Sut.kind;
  ops : int;
  trace_events : int;
  stats : Enum.stats;
  checked : int;  (** states materialised and checked *)
  violations : violation list;
}

val ok : report -> bool

val pp_report : Format.formatter -> report -> unit

(** [n] deterministic fresh-key inserts (drives node splits). *)
val insert_workload : ?base:int -> int -> Oracle.op list

(** Seed-deterministic insert/delete mix (~25% deletes of live keys). *)
val mixed_workload : seed:int -> int -> Oracle.op list

(** Drive [ops] against the SUT while recording, then sweep crash
    states.  Stops early after [max_violations] violations or
    [max_states] checked states.  The SUT is consumed: its pools end
    up holding the last materialised image. *)
val run :
  ?budget_per_point:int ->
  ?max_states:int ->
  ?max_violations:int ->
  ?seed:int ->
  sut:Sut.t ->
  ops:Oracle.op list ->
  unit ->
  report
