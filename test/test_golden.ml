(* Golden simulated results.

   A host-cost change must leave every simulated number bit-identical.
   This suite pins the simulated outcome of small runs as exact floats
   (printed with [%h], so no rounding hides a drift):

   - closed loop: PACTree under YCSB A through [Workload.Runner.run];
   - open loop: Poisson arrivals into a 2-shard PACTree [Svc.Store]
     through [Svc.Engine.run];
   - crashmc: each index's report line for the sweep the [@ci] alias
     runs ([--ops 24 --budget 12 --max-states 1500], mixed and insert
     workloads).

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

let closed_loop sys =
  let machine = Nvm.Machine.create ~numa_count:2 () in
  let scale = Experiments.Scale.make ~keys:3_000 ~ops:2_000 ~thread_counts:[] in
  let b = Experiments.Factory.make_backend machine ~scale sys in
  let r =
    Workload.Runner.run ~machine ~index:b.b_index ?service:b.b_service
      ~mix:Workload.Ycsb.Workload_a ~kind:Workload.Keyset.Int_keys ~loaded:3_000 ~ops:2_000
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

let crashmc_line ~workload sys =
  let ops =
    match workload with
    | `Mixed -> Crashmc.Harness.mixed_workload ~seed:1 24
    | `Insert -> Crashmc.Harness.insert_workload 24
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
      elapsed = 0x1.54878ab11b58p-12;
      completed = 2000;
      p50 = 0x1.0e42c4e8d64p-20;
      p99 = 0x1.6aaee2908a6p-17;
      flushes = 4095;
      fences = 2457;
      media_read_bytes = 1388288;
      media_write_bytes = 947968;
    }

let test_open_loop () =
  check "engine"
    (open_loop ())
    {
      elapsed = 0x1.b8c5f89d457b1p-10;
      completed = 2000;
      p50 = 0x1.b69f9fff2p-21;
      p99 = 0x1.3e3938c0417p-17;
      flushes = 3861;
      fences = 2380;
      media_read_bytes = 1325568;
      media_write_bytes = 913920;
    }

let test_crashmc () =
  let check what got want = Alcotest.(check (list string)) what want got in
  check "crashmc mixed" (List.map (crashmc_line ~workload:`Mixed) crashmc_systems)
    [
      "pactree: 24 ops, 234 trace events, 44 crash points, 241 states (80 dup-suppressed, 18 budget-truncated), 241 checked, 0 violations";
      "pdlart: 24 ops, 924 trace events, 175 crash points, 1187 states (544 dup-suppressed, 89 budget-truncated), 1187 checked, 0 violations";
      "fastfair: 24 ops, 338 trace events, 81 crash points, 220 states (130 dup-suppressed, 3 budget-truncated), 220 checked, 0 violations";
      "bztree: 24 ops, 819 trace events, 192 crash points, 264 states (191 dup-suppressed, 0 budget-truncated), 264 checked, 0 violations";
      "fptree: 24 ops, 234 trace events, 44 crash points, 241 states (80 dup-suppressed, 18 budget-truncated), 241 checked, 0 violations";
    ];
  check "crashmc insert" (List.map (crashmc_line ~workload:`Insert) crashmc_systems)
    [
      "pactree: 24 ops, 264 trace events, 49 crash points, 288 states (93 dup-suppressed, 23 budget-truncated), 288 checked, 0 violations";
      "pdlart: 24 ops, 1089 trace events, 179 crash points, 1500 states (456 dup-suppressed, 142 budget-truncated), 1500 checked, 0 violations";
      "fastfair: 24 ops, 192 trace events, 49 crash points, 141 states (92 dup-suppressed, 0 budget-truncated), 141 checked, 0 violations";
      "bztree: 24 ops, 1153 trace events, 242 crash points, 367 states (239 dup-suppressed, 2 budget-truncated), 367 checked, 0 violations";
      "fptree: 24 ops, 264 trace events, 49 crash points, 288 states (93 dup-suppressed, 23 budget-truncated), 288 checked, 0 violations";
    ]

(* The same PACTree run twice in one process, with an unrelated FastFair
   run in between, gives bit-identical results.  This case runs first,
   so the first PACTree machine is also the first of the process. *)
let test_run_order () =
  let first = closed_loop Experiments.Factory.Pactree_sys in
  ignore (closed_loop Experiments.Factory.Fastfair_sys : golden);
  check "PACTree after a FastFair run" (closed_loop Experiments.Factory.Pactree_sys) first

let () =
  Alcotest.run "golden"
    [
      ( "simulated",
        [
          Alcotest.test_case "a run does not depend on what ran before" `Quick test_run_order;
          Alcotest.test_case "closed-loop PACTree YCSB A" `Quick test_closed_loop;
          Alcotest.test_case "open-loop 2-shard service" `Quick test_open_loop;
          Alcotest.test_case "crashmc CI sweep, every index" `Quick test_crashmc;
        ] );
    ]
