(* Tests for lib/obs: the JSON codec, span attribution under the DES,
   the time-series sampler and the BENCH report schema. *)

module Json = Obs.Json
module Span = Obs.Span
module Sampler = Obs.Sampler
module Report = Obs.Report

let feq msg ?(eps = 1e-9) expected got =
  if Float.abs (expected -. got) > eps then
    Alcotest.failf "%s: expected %g, got %g" msg expected got

(* ---------- json ---------- *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("s", Json.String "a \"quoted\"\nline");
        ("i", Json.Int (-42));
        ("f", Json.Float 1.5e-3);
        ("b", Json.Bool true);
        ("n", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.Obj [ ("x", Json.Float 0.25) ] ]);
      ]
  in
  match Json.of_string (Json.to_string v) with
  | Error msg -> Alcotest.failf "reparse failed: %s" msg
  | Ok v' -> Alcotest.(check bool) "round trip" true (v = v')

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.failf "accepted malformed %S" s
      | Error _ -> ())
    [ "{"; "{\"a\":}"; "[1,]"; "nul"; "\"unterminated"; "{\"a\":1} trailing" ]

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
    (List.exists (fun r -> r.Sampler.write_mbps > 0.0) rates);
  let csv = Sampler.csv sampler in
  Alcotest.(check bool) "csv has header" true
    (String.length csv > String.length Sampler.csv_header
    && String.sub csv 0 (String.length Sampler.csv_header) = Sampler.csv_header)

(* ---------- report schema ---------- *)

let sample_entry =
  {
    Report.e_index = "PACTree";
    e_mix = "W-A";
    e_threads = 8;
    e_keys = 1000;
    e_ops = 1000;
    e_elapsed_s = 0.01;
    e_throughput_mops = 0.1;
    e_p50_us = 1.0;
    e_p99_us = 2.0;
    e_p9999_us = 3.0;
    e_mean_us = 1.2;
    e_max_us = 4.0;
    e_phase_pct =
      (let share = 100.0 /. float_of_int (List.length Span.all_phases) in
       List.map (fun p -> (Span.phase_name p, share)) Span.all_phases);
    e_phase_us = List.map (fun p -> (Span.phase_name p, 10.0)) Span.all_phases;
    e_flushes_per_op = 2.0;
    e_flushes_elided_per_op = 0.5;
    e_fences_per_op = 1.0;
    e_media_read_bytes_per_op = 100.0;
    e_media_write_bytes_per_op = 50.0;
    e_read_amplification = 2.0;
    e_write_amplification = 3.0;
  }

let sample_report entries =
  Report.to_json ~keys:1000 ~ops:1000 ~threads:8 ~mix:"W-A" ~entries

let test_report_validates () =
  (match Report.validate (sample_report [ sample_entry ]) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "valid report rejected: %s" msg);
  (* survives a disk round trip *)
  let path = Filename.temp_file "bench" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Report.write_file path (sample_report [ sample_entry ]);
  match Report.validate_file path with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "file round trip rejected: %s" msg

let test_report_rejects_malformed () =
  let expect_error what json =
    match Report.validate json with
    | Ok () -> Alcotest.failf "%s accepted" what
    | Error _ -> ()
  in
  expect_error "empty results" (sample_report []);
  expect_error "wrong schema"
    (Json.Obj [ ("schema", Json.String "nope/v0") ]);
  expect_error "phase_pct not summing to 100"
    (sample_report
       [
         {
           sample_entry with
           Report.e_phase_pct =
             List.map (fun p -> (Span.phase_name p, 5.0)) Span.all_phases;
         };
       ]);
  expect_error "non-monotone latency"
    (sample_report [ { sample_entry with Report.e_p99_us = 0.5 } ]);
  expect_error "latency max below p99.99"
    (sample_report [ { sample_entry with Report.e_max_us = 2.5 } ]);
  expect_error "negative per-op cost"
    (sample_report [ { sample_entry with Report.e_flushes_per_op = -1.0 } ])

(* ---------- end to end: a PACTree run has phases ---------- *)

let test_pactree_run_attributes_phases () =
  let scale = Experiments.Scale.tiny in
  let entry, _ =
    Experiments.Obs_run.bench_entry ~scale ~mix:Workload.Ycsb.Load_a ~threads:4
      Experiments.Factory.Pactree_sys
  in
  let pct name = List.assoc name entry.Report.e_phase_pct in
  Alcotest.(check bool) "trie_search time nonzero" true (pct "trie_search" > 0.0);
  Alcotest.(check bool) "smo time nonzero" true (pct "smo" > 0.0);
  let sum = List.fold_left (fun a (_, p) -> a +. p) 0.0 entry.Report.e_phase_pct in
  feq "phase percentages sum to 100" ~eps:0.5 100.0 sum;
  Alcotest.(check bool) "flushes per op nonzero" true
    (entry.Report.e_flushes_per_op > 0.0);
  (* and the whole report validates *)
  match
    Report.validate
      (Report.to_json ~keys:scale.Experiments.Scale.keys
         ~ops:scale.Experiments.Scale.ops ~threads:4 ~mix:"load-a"
         ~entries:[ entry ])
  with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "end-to-end report invalid: %s" msg

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
    Alcotest.test_case "json round trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json rejects garbage" `Quick test_json_rejects_garbage;
    Alcotest.test_case "span nesting + charge" `Quick test_span_nesting;
    Alcotest.test_case "span no-op when uninstalled" `Quick test_span_uninstalled_noop;
    Alcotest.test_case "span exception safety" `Quick test_span_exception_safe;
    Alcotest.test_case "sampler time series" `Quick test_sampler_series;
    Alcotest.test_case "report schema validates" `Quick test_report_validates;
    Alcotest.test_case "report rejects malformed" `Quick test_report_rejects_malformed;
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
