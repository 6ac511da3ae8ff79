(* Tests for lib/obs: span attribution under the DES, the time-series
   sampler, and a recorder that leaves the run it observes unchanged. *)

module Span = Obs.Span
module Sampler = Obs.Sampler

let feq msg ?(eps = 1e-9) expected got =
  if Float.abs (expected -. got) > eps then
    Alcotest.failf "%s: expected %g, got %g" msg expected got

(* ---------- spans under the DES ---------- *)

let test_span_nesting () =
  let span = Span.create () in
  Span.install span;
  Fun.protect ~finally:(fun () -> Span.uninstall span) @@ fun () ->
  let sched = Des.Sched.create () in
  Des.Sched.spawn sched ~name:"t" (fun () ->
      Span.with_phase Span.Smo (fun () ->
          Des.Sched.delay 10e-6;
          Span.with_phase Span.Alloc (fun () -> Des.Sched.delay 5e-6));
      (* costs accumulated via charge (no context switch) must also
         be seen by the span clock *)
      Span.with_phase Span.Trie_search (fun () -> Des.Sched.charge 3e-6);
      Des.Sched.delay 0.0);
  Des.Sched.run sched;
  let self phase =
    let row = List.find (fun r -> r.Span.r_phase = phase) (Span.rows span) in
    row.Span.r_seconds
  in
  feq "smo self excludes child" 10e-6 (self Span.Smo);
  feq "alloc child" 5e-6 (self Span.Alloc);
  feq "charged time attributed" 3e-6 (self Span.Trie_search);
  feq "attributed total" 18e-6 (Span.attributed_seconds span);
  let pct_sum = List.fold_left (fun a (_, p) -> a +. p) 0.0 (Span.percentages span) in
  feq "percentages sum to 100" ~eps:1e-6 100.0 pct_sum;
  let folded = Span.collapsed span in
  feq "collapsed root" 10e-6 (List.assoc "smo" folded);
  feq "collapsed nested path" 5e-6 (List.assoc "smo;alloc" folded)

let test_span_uninstalled_noop () =
  (* no recorder: with_phase must still run the thunk, nothing recorded *)
  let r = Span.with_phase Span.Smo (fun () -> 7) in
  Alcotest.(check int) "thunk result" 7 r;
  let span = Span.create () in
  feq "nothing attributed" 0.0 (Span.attributed_seconds span);
  let pct_sum = List.fold_left (fun a (_, p) -> a +. p) 0.0 (Span.percentages span) in
  feq "all-zero percentages when empty" 0.0 pct_sum

let test_span_exception_safe () =
  let span = Span.create () in
  Span.install span;
  Fun.protect ~finally:(fun () -> Span.uninstall span) @@ fun () ->
  let sched = Des.Sched.create () in
  Des.Sched.spawn sched ~name:"t" (fun () ->
      (try Span.with_phase Span.Smo (fun () -> Des.Sched.delay 2e-6; failwith "boom")
       with Failure _ -> ());
      (* the stack must have been popped: this lands at the root *)
      Span.with_phase Span.Alloc (fun () -> Des.Sched.delay 1e-6));
  Des.Sched.run sched;
  let folded = Span.collapsed span in
  Alcotest.(check bool) "alloc is a root span" true (List.mem_assoc "alloc" folded);
  Alcotest.(check bool) "no smo;alloc path" false (List.mem_assoc "smo;alloc" folded)

(* ---------- sampler ---------- *)

let test_sampler_series () =
  let machine = Nvm.Machine.create ~numa_count:1 () in
  let pool = Nvm.Pool.create machine ~name:"s" ~numa:0 ~capacity:(1 lsl 20) () in
  let sampler = Sampler.create ~machine ~interval:10e-6 () in
  let sched = Des.Sched.create () in
  Sampler.spawn sampler sched;
  Des.Sched.spawn sched ~name:"w" (fun () ->
      for i = 0 to 99 do
        Nvm.Pool.write_int pool (i * 64) i;
        Nvm.Pool.persist pool (i * 64) 8 (* clwb + drain: reaches media *);
        Des.Sched.delay 1e-6
      done;
      Sampler.stop sampler);
  Des.Sched.run sched;
  let n = List.length (Sampler.samples sampler) in
  Alcotest.(check bool) (Printf.sprintf "several samples (%d)" n) true (n > 5);
  let rates = Sampler.rates sampler in
  Alcotest.(check bool) "rates nonempty" true (rates <> []);
  Alcotest.(check bool) "some write bandwidth seen" true
    (List.exists (fun r -> r.Sampler.write_mbps > 0.0) rates)

(* ---------- end to end: a PACTree run has phases ---------- *)

let test_pactree_run_attributes_phases () =
  let scale = Experiments.Scale.tiny in
  let machine = Nvm.Machine.create ~numa_count:2 () in
  let b = Experiments.Factory.make_backend machine Experiments.Factory.Pactree_sys in
  let obs = Obs.Recorder.create machine () in
  let r =
    Workload.Runner.run ~machine ~index:b.b_index ?service:b.b_service ~obs
      ~mix:Workload.Ycsb.Load_a ~kind:Workload.Keyset.Int_keys
      ~loaded:scale.Experiments.Scale.keys ~ops:scale.Experiments.Scale.ops ~threads:4 ()
  in
  let pcts = Span.percentages obs.Obs.Recorder.span in
  let pct phase = List.assoc phase pcts in
  Alcotest.(check bool) "trie_search time nonzero" true (pct Span.Trie_search > 0.0);
  Alcotest.(check bool) "smo time nonzero" true (pct Span.Smo > 0.0);
  let sum = List.fold_left (fun a (_, p) -> a +. p) 0.0 pcts in
  feq "phase percentages sum to 100" ~eps:0.5 100.0 sum;
  Alcotest.(check bool) "flushes per op nonzero" true
    (float_of_int r.Workload.Runner.nvm.Nvm.Stats.flushes
     /. float_of_int r.Workload.Runner.ops
    > 0.0)

(* ---------- observing a run does not change it ---------- *)

(* Elapsed time, p50/p99 and the NVM counters of a run, compared
   exactly ([%h]) between a plain run and the same run with a recorder
   whose sampler ticks every 20 us. *)
let check_unobserved what (elapsed, latency, nvm) (elapsed', latency', nvm') =
  let hex f = Printf.sprintf "%h" f in
  let same name a b = Alcotest.(check string) (what ^ ": " ^ name) (hex a) (hex b) in
  same "elapsed" elapsed elapsed';
  List.iter
    (fun p ->
      same (Printf.sprintf "p%g" p)
        (Workload.Latency.percentile latency p)
        (Workload.Latency.percentile latency' p))
    [ 50.0; 99.0 ];
  List.iter
    (fun (name, f) -> Alcotest.(check int) (what ^ ": " ^ name) (f nvm) (f nvm'))
    [
      ("flushes", fun s -> s.Nvm.Stats.flushes);
      ("flushes_elided", fun s -> s.Nvm.Stats.flushes_elided);
      ("fences", fun s -> s.Nvm.Stats.fences);
      ("media read bytes", Nvm.Stats.total_read_bytes);
      ("media write bytes", Nvm.Stats.total_write_bytes);
    ];
  Alcotest.(check bool) (what ^ ": every NVM counter") true (nvm = nvm')

let observed machine = Obs.Recorder.create machine ~sample_interval:20e-6 ()

let test_runner_unobserved () =
  let once ~obs =
    let machine = Nvm.Machine.create ~numa_count:2 () in
    let scale = Experiments.Scale.make ~keys:3_000 ~ops:2_000 ~thread_counts:[] in
    let b = Experiments.Factory.make_backend machine ~scale Experiments.Factory.Pactree_sys in
    let obs = if obs then Some (observed machine) else None in
    let r =
      Workload.Runner.run ~machine ~index:b.b_index ?service:b.b_service ?obs
        ~mix:Workload.Ycsb.Workload_a ~kind:Workload.Keyset.Int_keys ~loaded:3_000
        ~ops:2_000 ~threads:8 ()
    in
    (r.Workload.Runner.elapsed, r.Workload.Runner.latency, r.Workload.Runner.nvm)
  in
  check_unobserved "runner" (once ~obs:false) (once ~obs:true)

let test_engine_unobserved () =
  let cfg =
    {
      (Experiments.Svc_run.default ~quick:true Experiments.Factory.Pactree_sys) with
      Experiments.Svc_run.shards = 2;
      keys = 3_000;
      ops = 2_000;
    }
  in
  let once ~obs =
    let store = Experiments.Svc_run.make_store cfg in
    let start =
      Svc.Engine.load ~store ~kind:cfg.Experiments.Svc_run.kind
        ~keys:cfg.Experiments.Svc_run.keys ()
    in
    let obs = if obs then Some (observed (Svc.Store.machine store)) else None in
    let r =
      Svc.Engine.run ~store ~config:(Experiments.Svc_run.engine_config cfg ~rate:1.2e6)
        ~start ?obs ()
    in
    (r.Svc.Engine.r_elapsed, r.Svc.Engine.r_total_lat, r.Svc.Engine.r_nvm)
  in
  check_unobserved "engine" (once ~obs:false) (once ~obs:true)

(* ---------- satellite: latency + stats accessors ---------- *)

let test_latency_accessors () =
  let rng = Des.Rng.create ~seed:7L in
  let l = Workload.Latency.create ~sample_rate:1.0 rng in
  feq "empty percentile" 0.0 (Workload.Latency.percentile l 99.0);
  feq "empty mean" 0.0 (Workload.Latency.mean l);
  feq "empty max" 0.0 (Workload.Latency.max l);
  List.iter (Workload.Latency.record l) [ 3.0; 1.0; 2.0 ];
  feq "mean" 2.0 (Workload.Latency.mean l);
  feq "max" 3.0 (Workload.Latency.max l);
  feq "p0 after sort" 1.0 (Workload.Latency.percentile l 0.0);
  match Workload.Latency.percentile l 120.0 with
  | exception Invalid_argument _ -> ()
  | v -> Alcotest.failf "percentile 120 accepted: %g" v

let test_stats_is_zero_and_amplification () =
  let s = Nvm.Stats.create () in
  Alcotest.(check bool) "fresh stats are zero" true (Nvm.Stats.is_zero s);
  s.Nvm.Stats.media_read_bytes <- 256;
  Alcotest.(check bool) "traffic breaks is_zero" false (Nvm.Stats.is_zero s);
  feq "no logical reads: amplification 0" 0.0 (Nvm.Stats.read_amplification s);
  s.Nvm.Stats.logical_read_bytes <- 64;
  feq "read amplification" 4.0 (Nvm.Stats.read_amplification s)

let suite =
  [
    Alcotest.test_case "span nesting + charge" `Quick test_span_nesting;
    Alcotest.test_case "span no-op when uninstalled" `Quick test_span_uninstalled_noop;
    Alcotest.test_case "span exception safety" `Quick test_span_exception_safe;
    Alcotest.test_case "sampler time series" `Quick test_sampler_series;
    Alcotest.test_case "pactree run attributes phases" `Quick
      test_pactree_run_attributes_phases;
    Alcotest.test_case "runner: a recorder leaves the run unchanged" `Quick
      test_runner_unobserved;
    Alcotest.test_case "engine: a recorder leaves the run unchanged" `Quick
      test_engine_unobserved;
    Alcotest.test_case "latency accessors" `Quick test_latency_accessors;
    Alcotest.test_case "stats is_zero + amplification" `Quick
      test_stats_is_zero_and_amplification;
  ]
