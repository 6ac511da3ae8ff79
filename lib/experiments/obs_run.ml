module Machine = Nvm.Machine
module Stats = Nvm.Stats
module Runner = Workload.Runner
module Latency = Workload.Latency
module Ycsb = Workload.Ycsb
module Keyset = Workload.Keyset

let entry_of_result ~name ~keys (r : Runner.result) (obs : Obs.Recorder.t) =
  let per_op x = float_of_int x /. float_of_int (max 1 r.Runner.ops) in
  let us p = Latency.percentile r.Runner.latency p *. 1e6 in
  let nvm = r.Runner.nvm in
  {
    Obs.Report.e_index = name;
    e_mix = Format.asprintf "%a" Ycsb.pp_mix r.Runner.mix;
    e_threads = r.Runner.threads;
    e_keys = keys;
    e_ops = r.Runner.ops;
    e_elapsed_s = r.Runner.elapsed;
    e_throughput_mops = Runner.mops r;
    e_p50_us = us 50.0;
    e_p99_us = us 99.0;
    e_p9999_us = us 99.99;
    e_mean_us = Latency.mean r.Runner.latency *. 1e6;
    e_max_us = Latency.max r.Runner.latency *. 1e6;
    e_phase_pct =
      List.map
        (fun (p, pct) -> (Obs.Span.phase_name p, pct))
        (Obs.Span.percentages obs.Obs.Recorder.span);
    e_phase_us =
      List.map
        (fun row -> (Obs.Span.phase_name row.Obs.Span.r_phase, row.Obs.Span.r_seconds *. 1e6))
        (Obs.Span.rows obs.Obs.Recorder.span);
    e_flushes_per_op = per_op nvm.Stats.flushes;
    e_flushes_elided_per_op = per_op nvm.Stats.flushes_elided;
    e_fences_per_op = per_op nvm.Stats.fences;
    e_media_read_bytes_per_op = per_op (Stats.total_read_bytes nvm);
    e_media_write_bytes_per_op = per_op (Stats.total_write_bytes nvm);
    e_read_amplification = Stats.read_amplification nvm;
    e_write_amplification = Stats.write_amplification nvm;
  }

let bench_entry ?(sanitize = false) ~scale ~mix ~threads sys =
  let machine = Machine.create ~numa_count:2 () in
  let b = Factory.make_backend machine sys in
  let obs = Obs.Recorder.create machine () in
  (* Enabled before load+run so the whole lifetime is linted; the
     caller reads {!Pobj.Sanitizer.reports} afterwards (the next
     [enable] — or process exit — retires this machine's observer). *)
  if sanitize then Pobj.Sanitizer.enable machine;
  let r =
    Runner.run ~machine ~index:b.b_index ?service:b.b_service ~obs ~mix
      ~kind:Keyset.Int_keys ~loaded:scale.Scale.keys ~ops:scale.Scale.ops ~threads
      ~theta:0.99 ()
  in
  (entry_of_result ~name:(Factory.name sys) ~keys:scale.Scale.keys r obs, obs)
