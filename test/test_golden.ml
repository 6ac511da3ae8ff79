(* Golden simulated results.

   A host-cost change must leave every simulated number bit-identical.
   This suite pins the simulated outcome of small runs as exact floats
   (printed with [%h], so no rounding hides a drift):

   - closed loop: PACTree under YCSB A through [Workload.Runner.run],
     and FastFair, BzTree and FPTree under YCSB A, C and E, so that a
     refactor of a baseline's descent or split path is held to the
     same accesses and persists;
   - open loop: Poisson arrivals into a 2-shard PACTree [Svc.Store]
     through [Svc.Engine.run];
   - crashmc: each index's report line for the bounded CI sweep
     ([pactree_bench crashmc --index all --ops 24 --budget 12
     --max-states 1500], mixed and insert workloads).  The [@ci]
     alias does not run that sweep itself: these pins hold its lines,
     "0 violations" included.  Its 24 ops never split a 64-slot
     PACTree or FPTree data node, so an 80-op insert line for those
     two pins a sweep that reaches their splits.

   A simulation is a function of its inputs alone: every machine
   numbers its own pools, so a run does not depend on what ran before
   it in the process, and one case checks exactly that.  If a change is
   meant to move simulated results, regenerate the pinned values from
   the failure messages and say why in the change. *)

let hex f = Printf.sprintf "%h" f

type golden = {
  elapsed : float;
  completed : int;
  p50 : float;
  p99 : float;
  flushes : int;
  fences : int;
  media_read_bytes : int;
  media_write_bytes : int;
}

let of_run ~elapsed ~completed ~latency ~nvm =
  {
    elapsed;
    completed;
    p50 = Workload.Latency.percentile latency 50.0;
    p99 = Workload.Latency.percentile latency 99.0;
    flushes = nvm.Nvm.Stats.flushes;
    fences = nvm.Nvm.Stats.fences;
    media_read_bytes = Nvm.Stats.total_read_bytes nvm;
    media_write_bytes = Nvm.Stats.total_write_bytes nvm;
  }

let closed_loop ?(mix = Workload.Ycsb.Workload_a) sys =
  let machine = Nvm.Machine.create ~numa_count:2 () in
  let scale = Experiments.Scale.make ~keys:3_000 ~ops:2_000 ~thread_counts:[] in
  let b = Experiments.Factory.make_backend machine ~scale sys in
  let r =
    Workload.Runner.run ~machine ~index:b.b_index ?service:b.b_service
      ~mix ~kind:Workload.Keyset.Int_keys ~loaded:3_000 ~ops:2_000
      ~threads:8 ~seed:7L ()
  in
  of_run ~elapsed:r.Workload.Runner.elapsed ~completed:r.Workload.Runner.ops
    ~latency:r.Workload.Runner.latency ~nvm:r.Workload.Runner.nvm

let open_loop () =
  let cfg =
    {
      (Experiments.Svc_run.default ~quick:true Experiments.Factory.Pactree_sys) with
      Experiments.Svc_run.shards = 2;
      keys = 3_000;
      ops = 2_000;
      seed = 11L;
    }
  in
  let r = Experiments.Svc_run.run_point cfg ~rate:1.2e6 in
  of_run ~elapsed:r.Svc.Engine.r_elapsed ~completed:r.Svc.Engine.r_completed
    ~latency:r.Svc.Engine.r_total_lat ~nvm:r.Svc.Engine.r_nvm

let crashmc_line ?(n = 24) ~workload sys =
  let ops =
    match workload with
    | `Mixed -> Crashmc.Harness.mixed_workload ~seed:1 n
    | `Insert -> Crashmc.Harness.insert_workload n
  in
  let machine = Nvm.Machine.create ~numa_count:1 () in
  let sut = Experiments.Factory.make_backend machine sys in
  let r =
    Crashmc.Harness.run ~budget_per_point:12 ~max_states:1500 ~seed:1
      ~name:(Experiments.Factory.id sys) ~machine ~sut ~ops ()
  in
  Format.asprintf "%a" Crashmc.Harness.pp_report r

(* in the order [pactree_bench crashmc --index all] reports *)
let crashmc_systems = List.sort compare Experiments.Factory.all

(* One line per field, floats in [%h]: a case is compared as one
   rendered record, so a failure prints every received value at once. *)
let render g =
  String.concat "\n"
    [
      "elapsed = " ^ hex g.elapsed;
      "completed = " ^ string_of_int g.completed;
      "p50 = " ^ hex g.p50;
      "p99 = " ^ hex g.p99;
      "flushes = " ^ string_of_int g.flushes;
      "fences = " ^ string_of_int g.fences;
      "media_read_bytes = " ^ string_of_int g.media_read_bytes;
      "media_write_bytes = " ^ string_of_int g.media_write_bytes;
    ]

let check name got want = Alcotest.(check string) name (render want) (render got)

let test_closed_loop () =
  check "runner"
    (closed_loop Experiments.Factory.Pactree_sys)
    {
      elapsed = 0x1.b4cc5521a855cp-13;
      completed = 2000;
      p50 = 0x1.396cdc6ceacp-21;
      p99 = 0x1.77539286fd48p-18;
      flushes = 3096;
      fences = 2420;
      media_read_bytes = 929024;
      media_write_bytes = 726528;
    }

(* The three B+-tree baselines, each under a write mix (YCSB A: splits
   and upserts), a read mix (YCSB C: descents only) and a scan mix
   (YCSB E: leaf-chain walks).  In the FPTree YCSB A run, five lookups
   meet a leaf that split after the DRAM lookup and traverse again. *)
let baseline_pins =
  [
    ( "FastFair YCSB A",
      Experiments.Factory.Fastfair_sys,
      Workload.Ycsb.Workload_a,
      {
        elapsed = 0x1.7a13f94e63acp-11;
        completed = 2000;
        p50 = 0x1.f13ff56dbep-20;
        p99 = 0x1.074d377c7f3p-16;
        flushes = 6090;
        fences = 5786;
        media_read_bytes = 2112512;
        media_write_bytes = 1507840;
      } );
    ( "FastFair YCSB C",
      Experiments.Factory.Fastfair_sys,
      Workload.Ycsb.Workload_c,
      {
        elapsed = 0x1.98459982c17p-14;
        completed = 2000;
        p50 = 0x1.60b964765d8p-20;
        p99 = 0x1.fc8d0c760dap-18;
        flushes = 0;
        fences = 0;
        media_read_bytes = 60672;
        media_write_bytes = 0;
      } );
    ( "FastFair YCSB E",
      Experiments.Factory.Fastfair_sys,
      Workload.Ycsb.Workload_e,
      {
        elapsed = 0x1.688648a659758p-12;
        completed = 2000;
        p50 = 0x1.9c511dc3a4p-19;
        p99 = 0x1.ed4009db4bp-17;
        flushes = 614;
        fences = 590;
        media_read_bytes = 266240;
        media_write_bytes = 153088;
      } );
    ( "BzTree YCSB A",
      Experiments.Factory.Bztree_sys,
      Workload.Ycsb.Workload_a,
      {
        elapsed = 0x1.4a8843c3c098cp-10;
        completed = 2000;
        p50 = 0x1.f36c9622b94p-19;
        p99 = 0x1.e3ed533ebedp-15;
        flushes = 16221;
        fences = 10887;
        media_read_bytes = 4755200;
        media_write_bytes = 3505920;
      } );
    ( "BzTree YCSB C",
      Experiments.Factory.Bztree_sys,
      Workload.Ycsb.Workload_c,
      {
        elapsed = 0x1.326d1ba98218p-13;
        completed = 2000;
        p50 = 0x1.704b1f40c08p-20;
        p99 = 0x1.0552691d3ecp-17;
        flushes = 0;
        fences = 0;
        media_read_bytes = 93952;
        media_write_bytes = 0;
      } );
    ( "BzTree YCSB E",
      Experiments.Factory.Bztree_sys,
      Workload.Ycsb.Workload_e,
      {
        elapsed = 0x1.51d4cdbbf9fp-11;
        completed = 2000;
        p50 = 0x1.96f2ba0b188p-19;
        p99 = 0x1.d8c14e73bdap-18;
        flushes = 1445;
        fences = 1042;
        media_read_bytes = 1088000;
        media_write_bytes = 324352;
      } );
    ( "FPTree YCSB A",
      Experiments.Factory.Fptree_sys,
      Workload.Ycsb.Workload_a,
      {
        elapsed = 0x1.b486148fe2884p-13;
        completed = 2000;
        p50 = 0x1.99187b881dp-21;
        p99 = 0x1.9b60991cf2p-19;
        flushes = 2581;
        fences = 2206;
        media_read_bytes = 781312;
        media_write_bytes = 622592;
      } );
    ( "FPTree YCSB C",
      Experiments.Factory.Fptree_sys,
      Workload.Ycsb.Workload_c,
      {
        elapsed = 0x1.efe743f56efdp-14;
        completed = 2000;
        p50 = 0x1.c2f8b88dfb8p-22;
        p99 = 0x1.05d6d8a584p-20;
        flushes = 0;
        fences = 0;
        media_read_bytes = 43264;
        media_write_bytes = 0;
      } );
    ( "FPTree YCSB E",
      Experiments.Factory.Fptree_sys,
      Workload.Ycsb.Workload_e,
      {
        elapsed = 0x1.f7425ef74bd34p-13;
        completed = 2000;
        p50 = 0x1.7126f4ec1a8p-20;
        p99 = 0x1.1e427332a0bp-19;
        flushes = 232;
        fences = 220;
        media_read_bytes = 146432;
        media_write_bytes = 59392;
      } );
  ]

let test_baselines () =
  List.iter (fun (what, sys, mix, want) -> check what (closed_loop ~mix sys) want) baseline_pins

let test_open_loop () =
  check "engine"
    (open_loop ())
    {
      elapsed = 0x1.b8c45c4c27b75p-10;
      completed = 2000;
      p50 = 0x1.21e908ed8fp-21;
      p99 = 0x1.c82de0f6c1p-19;
      flushes = 2900;
      fences = 2352;
      media_read_bytes = 875776;
      media_write_bytes = 695296;
    }

let test_crashmc () =
  let check what got want = Alcotest.(check (list string)) what want got in
  check "crashmc mixed" (List.map (crashmc_line ~workload:`Mixed) crashmc_systems)
    [
      "pactree: 24 ops, 148 trace events, 44 crash points, 87 states (19 dup-suppressed, 0 budget-truncated), 87 checked, 0 violations";
      "pdlart: 24 ops, 865 trace events, 175 crash points, 449 states (153 dup-suppressed, 6 budget-truncated), 449 checked, 0 violations";
      "fastfair: 24 ops, 290 trace events, 81 crash points, 153 states (56 dup-suppressed, 0 budget-truncated), 153 checked, 0 violations";
      "bztree: 24 ops, 819 trace events, 192 crash points, 288 states (167 dup-suppressed, 0 budget-truncated), 288 checked, 0 violations";
      "fptree: 24 ops, 148 trace events, 44 crash points, 87 states (19 dup-suppressed, 0 budget-truncated), 87 checked, 0 violations";
    ];
  check "crashmc insert" (List.map (crashmc_line ~workload:`Insert) crashmc_systems)
    [
      "pactree: 24 ops, 168 trace events, 49 crash points, 97 states (24 dup-suppressed, 0 budget-truncated), 97 checked, 0 violations";
      "pdlart: 24 ops, 1029 trace events, 187 crash points, 542 states (162 dup-suppressed, 7 budget-truncated), 542 checked, 0 violations";
      "fastfair: 24 ops, 144 trace events, 49 crash points, 73 states (24 dup-suppressed, 0 budget-truncated), 73 checked, 0 violations";
      "bztree: 24 ops, 1153 trace events, 242 crash points, 391 states (215 dup-suppressed, 2 budget-truncated), 391 checked, 0 violations";
      "fptree: 24 ops, 168 trace events, 49 crash points, 97 states (24 dup-suppressed, 0 budget-truncated), 97 checked, 0 violations";
    ]

(* [pactree_bench crashmc --index pactree|fptree --ops 80 --workload
   insert --budget 12 --max-states 1500]: the crash states of splits. *)
let test_crashmc_splits () =
  Alcotest.(check (list string))
    "crashmc insert, 80 ops"
    [
      "pactree: 80 ops, 665 trace events, 175 crash points, 380 states (94 dup-suppressed, 1 budget-truncated), 380 checked, 0 violations";
      "fptree: 80 ops, 623 trace events, 170 crash points, 353 states (89 dup-suppressed, 1 budget-truncated), 353 checked, 0 violations";
    ]
    (List.map
       (crashmc_line ~n:80 ~workload:`Insert)
       [ Experiments.Factory.Pactree_sys; Experiments.Factory.Fptree_sys ])

(* The same PACTree run twice in one process, with an unrelated FastFair
   run in between, gives bit-identical results.  This case runs first,
   so the first PACTree machine is also the first of the process. *)
let test_run_order () =
  let first = closed_loop Experiments.Factory.Pactree_sys in
  ignore (closed_loop Experiments.Factory.Fastfair_sys : golden);
  check "PACTree after a FastFair run" (closed_loop Experiments.Factory.Pactree_sys) first

let () = Hang_alarm.arm ()

let () =
  Alcotest.run "golden"
    [
      ( "simulated",
        [
          Alcotest.test_case "a run does not depend on what ran before" `Quick test_run_order;
          Alcotest.test_case "closed-loop PACTree YCSB A" `Quick test_closed_loop;
          Alcotest.test_case "closed-loop baselines YCSB A, C, E" `Quick test_baselines;
          Alcotest.test_case "open-loop 2-shard service" `Quick test_open_loop;
          Alcotest.test_case "crashmc CI sweep, every index" `Quick test_crashmc;
          Alcotest.test_case "crashmc 80-op inserts reach splits" `Quick test_crashmc_splits;
        ] );
    ]
