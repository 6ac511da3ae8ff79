(** Multi-threaded benchmark runner over the discrete-event simulator.

    Loads an index with [loaded] keys (parallel inserts), then runs
    [ops] operations across [threads] simulated threads spread round-
    robin over the machine's NUMA domains.  Simulated elapsed time of
    the run phase yields throughput; 10% latency sampling yields
    percentiles; NVM counters are diffed around the run phase. *)

type result = {
  mix : Ycsb.mix;
  threads : int;
  ops : int;
  elapsed : float;  (** simulated seconds of the run phase *)
  throughput : float;  (** operations per simulated second *)
  latency : Latency.t;  (** merged samples (10%) *)
  nvm : Nvm.Stats.t;  (** device+machine traffic during the run *)
  host_words : float;  (** host minor words allocated during the run phase *)
  load_host_s : float;  (** host (wall-clock) seconds of the load phase; 0 for [Load_a] *)
  run_host_s : float;  (** host (wall-clock) seconds of the run phase *)
  tail_splits : (int * int) option;
      (** with [?splits]: of the [n] sampled ops at or above the p99.9
          latency, [(s, n)], the [s] of them that split a node *)
}

(** Optional background service (e.g. PACTree's updater). *)
type service = Baselines.System.service = {
  body : unit -> unit;
  shutdown : unit -> unit;
}

(** [run ~machine ~index ~mix ~kind ~loaded ~ops ~threads ()] executes
    load + run phases.  [theta] defaults to YCSB's 0.99 Zipfian; pass
    [0.] for uniform.

    With [?obs], the measured phase (not the preparatory load) is
    instrumented: the recorder's span tracer is installed for phase
    attribution, and its sampler (if any) runs on the phase's scheduler
    and is stopped when the workers finish.  Observing a run does not
    change it: the result is bit-identical to the same run without
    [?obs].

    With [?splits] (the calling thread's split count, e.g. a system's
    [b_splits]), each sampled op reads it before and after, and the
    result says how many of the slowest sampled ops split a node
    ([tail_splits]); the count is deterministic and a read allocates
    nothing. *)
val run :
  machine:Nvm.Machine.t ->
  index:Baselines.Index_intf.index ->
  ?service:service ->
  ?splits:(unit -> int) ->
  ?obs:Obs.Recorder.t ->
  mix:Ycsb.mix ->
  kind:Keyset.kind ->
  loaded:int ->
  ops:int ->
  threads:int ->
  ?theta:float ->
  ?seed:int64 ->
  unit ->
  result

(** Load only (returns elapsed simulated seconds). *)
val load :
  machine:Nvm.Machine.t ->
  index:Baselines.Index_intf.index ->
  ?service:service ->
  kind:Keyset.kind ->
  loaded:int ->
  threads:int ->
  ?seed:int64 ->
  unit ->
  float

val mops : result -> float
