(** Glue between the workload runner and lib/obs: instrumented runs
    that produce {!Obs.Report} entries for BENCH_pactree.json. *)

(** [bench_entry ~scale ~mix ~threads sys] builds the system, runs the
    workload (integer keys, YCSB's skew 0.99) with a fresh
    {!Obs.Recorder} installed, and condenses the
    result + recorder into one report entry.  The recorder is also
    returned for callers that want the full dump ([--obs]).
    [~sanitize:true] additionally enables the {!Pobj.Sanitizer} on the
    run's machine and leaves it active so the caller can inspect
    {!Pobj.Sanitizer.reports} when the run returns. *)
val bench_entry :
  ?sanitize:bool ->
  scale:Scale.t ->
  mix:Workload.Ycsb.mix ->
  threads:int ->
  Factory.sys ->
  Obs.Report.entry * Obs.Recorder.t

(** Condense an already-made run: [entry_of_result ~name ~keys r obs]. *)
val entry_of_result :
  name:string -> keys:int -> Workload.Runner.result -> Obs.Recorder.t -> Obs.Report.entry
