(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation (see DESIGN.md section 3 for the index).

   Usage:
     dune exec bench/main.exe                 # all figures, quick scale
     dune exec bench/main.exe -- --full       # paper-like scale (slow)
     dune exec bench/main.exe -- fig9 fig13   # a subset
     dune exec bench/main.exe -- micro        # bechamel micro-benchmarks

   Throughputs are simulated Mops/s on the modelled DCPMM machine;
   shapes (ordering, ratios, crossovers), not absolute numbers, are
   the comparison target against the paper. *)

let microbench () =
  (* Bechamel micro-benchmarks: host-side cost of one simulated
     operation per index (single-threaded, small working set).  One
     Test.make per measured system. *)
  let open Bechamel in
  let scale = Experiments.Scale.tiny in
  let make_op sys =
    let machine = Nvm.Machine.create ~numa_count:2 () in
    let index, _service = Experiments.Factory.make machine ~scale sys in
    for i = 0 to 4_095 do
      Baselines.Index_intf.insert index (Pactree.Key.of_int i) i
    done;
    let counter = ref 0 in
    Staged.stage (fun () ->
        counter := (!counter + 7919) land 0xFFF;
        ignore (Baselines.Index_intf.lookup index (Pactree.Key.of_int !counter)))
  in
  let test_of sys = Test.make ~name:(Experiments.Factory.name sys) (make_op sys) in
  let test =
    Test.make_grouped ~name:"lookup-4k" (List.map test_of Experiments.Factory.all)
  in
  let benchmark () =
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
    Benchmark.all cfg instances test
  in
  let analyze results =
    let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
    Analyze.all ols Toolkit.Instance.monotonic_clock results
  in
  Format.printf "@.=== micro: host-side cost per simulated lookup ===@.";
  let results = analyze (benchmark ()) in
  Hashtbl.iter
    (fun name ols ->
      match Bechamel.Analyze.OLS.estimates ols with
      | Some [ est ] -> Format.printf "%-24s %10.0f ns/op@." name est
      | Some _ | None -> Format.printf "%-24s (no estimate)@." name)
    results

(* Bounded crash-state model-checking sweep (lib/crashmc): not a
   paper figure, but the strongest correctness evidence in the suite —
   every enumerated crash image of a mixed single-writer trace must
   recover to a durably-linearizable state, on every index. *)
let crashmc scale =
  let quick = scale.Experiments.Scale.keys < 1_000_000 in
  let ops = if quick then 40 else 90 in
  let budget = if quick then 24 else 48 in
  let seed = Int64.to_int (Des.Rng.env_seed ~default:1L) in
  Format.printf "@.=== crashmc: durable-linearizability crash sweep ===@.";
  List.iter
    (fun kind ->
      let sut = Crashmc.Sut.make kind in
      let r =
        Crashmc.Harness.run ~budget_per_point:budget ~max_states:10_000 ~seed ~sut
          ~ops:(Crashmc.Harness.mixed_workload ~seed ops)
          ()
      in
      Format.printf "%a@." Crashmc.Harness.pp_report r;
      if not (Crashmc.Harness.ok r) then
        Format.printf "  seed %d (override with PACTREE_SEED)@." seed)
    Crashmc.Sut.all

(* Instrumented run in the BENCH_pactree.json shape: per-phase time
   attribution + per-op persistence costs for PACTree and the two
   closest baselines.  (The canonical file is emitted by
   `pactree_bench stats`; this target prints the same rows and
   validates them in-memory.) *)
let stats scale =
  Format.printf "@.=== stats: phase attribution + per-op persistence costs ===@.";
  let mix = Workload.Ycsb.Workload_a in
  let threads = 28 in
  let entries =
    List.map
      (fun sys ->
        let entry, obs = Experiments.Obs_run.bench_entry ~scale ~mix ~threads sys in
        Format.printf "%a@." Obs.Report.pp_entry entry;
        Format.printf "%a@." Obs.Span.pp_table obs.Obs.Recorder.span;
        entry)
      [
        Experiments.Factory.Pactree_sys;
        Experiments.Factory.Pdlart_sys;
        Experiments.Factory.Fastfair_sys;
      ]
  in
  let json =
    Obs.Report.to_json ~keys:scale.Experiments.Scale.keys
      ~ops:scale.Experiments.Scale.ops ~threads
      ~mix:(Format.asprintf "%a" Workload.Ycsb.pp_mix mix)
      ~entries
  in
  match Obs.Report.validate json with
  | Ok () -> Format.printf "(rows conform to schema %s)@." Obs.Report.schema_version
  | Error msg -> failwith ("stats: malformed bench output: " ^ msg)

(* Sharded KV service saturation curves (lib/svc): open-loop sweep
   across the knee for PACTree and FastFair-backed stores, validated
   in-memory against the pactree-svc/v1 shape checks.  (The canonical
   JSON is emitted by `pactree_bench service`.) *)
let service scale =
  let quick = scale.Experiments.Scale.keys < 1_000_000 in
  Format.printf "@.=== service: sharded store saturation sweep ===@.";
  List.iter
    (fun sys ->
      let cfg = Experiments.Svc_run.default ~quick sys in
      let points = Experiments.Svc_run.sweep cfg in
      Format.printf "--- %s (%d shards) ---@." (Experiments.Factory.name sys)
        cfg.Experiments.Svc_run.shards;
      Format.printf
        " offered   achieved    rej    q-p50us    q-p99us    s-p99us    t-p99us  imbal@.";
      List.iter
        (fun (_, r) ->
          Format.printf "%a@." Obs.Svc_report.pp_point
            (Experiments.Svc_run.point_of_result r))
        points;
      (match Experiments.Svc_run.check_sweep points with
      | Ok () -> Format.printf "(sweep shape OK: monotone, knee, queueing delay)@."
      | Error msg -> failwith ("service sweep: " ^ msg));
      match Obs.Svc_report.validate (Experiments.Svc_run.report cfg points) with
      | Ok () ->
          Format.printf "(points conform to schema %s)@." Obs.Svc_report.schema_version
      | Error msg -> failwith ("service: malformed report: " ^ msg))
    [ Experiments.Factory.Pactree_sys; Experiments.Factory.Fastfair_sys ]

let all_figures =
  [
    ("fig2", Experiments.Figures.fig2);
    ("fig3", Experiments.Figures.fig3);
    ("fig4", Experiments.Figures.fig4);
    ("fig5", Experiments.Figures.fig5);
    ("fig6", Experiments.Figures.fig6);
    ("fig9", Experiments.Figures.fig9);
    ("fig10", Experiments.Figures.fig10);
    ("fig11", Experiments.Figures.fig11);
    ("fig12", Experiments.Figures.fig12);
    ("fig13", Experiments.Figures.fig13);
    ("fig14", Experiments.Figures.fig14);
    ("fig15", Experiments.Figures.fig15);
    ("eadr", Experiments.Figures.eadr);
    ("fh5", Experiments.Figures.fh5);
    ("sec6_7", Experiments.Figures.sec6_7);
    ("sec6_8", fun scale -> Experiments.Figures.sec6_8 scale);
    ("crashmc", crashmc);
    ("stats", stats);
    ("service", service);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let full = List.mem "--full" args in
  let scale = if full then Experiments.Scale.full else Experiments.Scale.quick in
  let selected = List.filter (fun a -> not (String.length a > 1 && a.[0] = '-')) args in
  let wants name = selected = [] || List.mem name selected in
  Format.printf "PACTree benchmark suite (%s scale: %d keys, %d ops)@."
    (if full then "full" else "quick")
    scale.Experiments.Scale.keys scale.Experiments.Scale.ops;
  List.iter
    (fun (name, f) ->
      if wants name then begin
        let t0 = Unix.gettimeofday () in
        f scale;
        Format.printf "[%s took %.1fs host time]@." name (Unix.gettimeofday () -. t0)
      end)
    all_figures;
  if wants "micro" then microbench ()
