(* Tests for the sharded KV service layer (lib/svc): routing and
   cross-shard scans against a single-map oracle, crash durability of
   acked writes, proof that the service layer adds no NVM traffic of
   its own, determinism of both the closed-loop runner and the
   open-loop engine, saturation-sweep shape, and crash-state sweeps
   driven through the store (one crash, and a crash during recovery's
   aftermath: crash, recover, write, crash again). *)

module Key = Pactree.Key
module Store = Svc.Store
module Engine = Svc.Engine
module Index = Baselines.Index_intf
module Kmap = Map.Make (struct
  type t = Key.t

  let compare = Key.compare
end)

let fastfair_backend machine =
  Experiments.Factory.make_backend machine Experiments.Factory.Fastfair_sys

(* [span]-keyspace store with equi-spaced boundaries. *)
let make_store ?(numa = 2) ?(shards = 3) ?(span = 1000) () =
  let machine = Nvm.Machine.create ~numa_count:numa () in
  let boundaries =
    Array.init (shards - 1) (fun i -> Key.of_int ((i + 1) * span / shards))
  in
  Store.create ~machine ~boundaries
    ~make_backend:(fun ~shard:_ ~numa:_ -> fastfair_backend machine)
    ()

(* ---------- routing + direct ops vs a map oracle ---------- *)

let test_store_ops_vs_oracle () =
  let store = make_store () in
  let rng = Des.Rng.create ~seed:11L in
  let model = ref Kmap.empty in
  for _ = 1 to 800 do
    let k = Key.of_int (Des.Rng.int rng 1000) in
    match Des.Rng.int rng 4 with
    | 0 ->
        let v = Des.Rng.int rng 1_000_000 in
        Store.insert store k v;
        model := Kmap.add k v !model
    | 1 ->
        let v = Des.Rng.int rng 1_000_000 in
        let updated = Store.update store k v in
        Alcotest.(check bool) "update hit agrees" (Kmap.mem k !model) updated;
        if updated then model := Kmap.add k v !model
    | 2 ->
        let deleted = Store.delete store k in
        Alcotest.(check bool) "delete hit agrees" (Kmap.mem k !model) deleted;
        model := Kmap.remove k !model
    | _ ->
        Alcotest.(check (option int))
          "lookup agrees" (Kmap.find_opt k !model) (Store.lookup store k)
  done;
  Kmap.iter
    (fun k v ->
      Alcotest.(check (option int))
        "surviving binding" (Some v) (Store.lookup store k))
    !model;
  (* routing actually spread the keys: every shard owns part of the map *)
  let per_shard = Array.make (Store.shard_count store) 0 in
  Kmap.iter
    (fun k _ ->
      let s = Store.shard_of_key store k in
      per_shard.(s) <- per_shard.(s) + 1)
    !model;
  Array.iteri
    (fun i c ->
      Alcotest.(check bool) (Printf.sprintf "shard %d non-empty" i) true (c > 0))
    per_shard

let test_cross_shard_scan () =
  let store = make_store () in
  let rng = Des.Rng.create ~seed:12L in
  let model = ref Kmap.empty in
  for _ = 1 to 700 do
    let k = Key.of_int (Des.Rng.int rng 1000) in
    let v = Des.Rng.int rng 1_000_000 in
    Store.insert store k v;
    model := Kmap.add k v !model
  done;
  let oracle_scan k n =
    Kmap.to_seq !model
    |> Seq.filter (fun (k', _) -> Key.compare k' k >= 0)
    |> Seq.take n |> List.of_seq
  in
  let kv = Alcotest.(pair string int) in
  (* starts in every shard; counts that straddle one and both
     boundaries (333 and 666), and one spanning the whole store *)
  List.iter
    (fun (start, n) ->
      let k = Key.of_int start in
      Alcotest.(check (list kv))
        (Printf.sprintf "scan(%d, %d)" start n)
        (oracle_scan k n) (Store.scan store k n))
    [
      (0, 10); (0, 1000); (300, 60); (300, 500); (650, 40); (900, 200); (999, 5);
      (500, 0);
    ]

(* ---------- durability and NVM cost ---------- *)

let test_acked_writes_survive_crash () =
  let store = make_store ~numa:1 () in
  let model = ref Kmap.empty in
  for i = 0 to 199 do
    if i mod 7 = 3 then begin
      let k = Key.of_int (i - 1) in
      ignore (Store.delete store k : bool);
      model := Kmap.remove k !model
    end
    else begin
      let k = Key.of_int i in
      Store.insert store k (i * 10);
      model := Kmap.add k (i * 10) !model
    end
  done;
  Nvm.Machine.crash (Store.machine store) Nvm.Machine.Strict;
  Store.recover store;
  Store.invariants store;
  let kv = Alcotest.(pair string int) in
  Alcotest.(check (list kv))
    "every acked write, and nothing else, after the crash" (Kmap.bindings !model)
    (Store.scan store (Key.of_int 0) 1000)

(* The store and the engine are routing and scheduling only: the same
   writes must cost exactly the flushes and fences they cost on bare
   backends (one per shard, same key routing), through bulk load, an
   engine run and direct store calls alike. *)
let test_service_adds_no_nvm_traffic () =
  let keys = 1_500 and ops = 1_200 in
  let kind = Workload.Keyset.Int_keys and mix = Workload.Ycsb.Workload_a in
  let boundaries = Store.boundaries_for ~kind ~keys ~shards:2 in
  let svc_machine = Nvm.Machine.create ~numa_count:1 () in
  let store =
    Store.create ~machine:svc_machine ~boundaries
      ~make_backend:(fun ~shard:_ ~numa:_ -> fastfair_backend svc_machine)
      ()
  in
  let bare_machine = Nvm.Machine.create ~numa_count:1 () in
  let bare =
    Array.init (Store.shard_count store) (fun _ ->
        (fastfair_backend bare_machine).Store.b_index)
  in
  let on_bare k = bare.(Store.shard_of_key store k) in
  let same_cost stage =
    let svc = Nvm.Machine.total_stats svc_machine
    and raw = Nvm.Machine.total_stats bare_machine in
    Alcotest.(check int) (stage ^ ": flushes") raw.Nvm.Stats.flushes
      svc.Nvm.Stats.flushes;
    Alcotest.(check int) (stage ^ ": fences") raw.Nvm.Stats.fences
      svc.Nvm.Stats.fences;
    Alcotest.(check bool) (stage ^ ": some NVM traffic") true
      (svc.Nvm.Stats.fences > 0)
  in
  (* bulk load *)
  let start = Engine.load ~store ~kind ~keys () in
  for i = 0 to keys - 1 do
    let k = Workload.Keyset.key kind i in
    Index.insert (on_bare k) k i
  done;
  same_cost "load";
  (* an engine run: one source, blocking admission and one worker per
     shard keep each shard's op order the stream's order *)
  let seed = 5L and theta = 0.99 in
  let config =
    Experiments.Svc_run.engine_config
      {
        (Experiments.Svc_run.default Experiments.Factory.Fastfair_sys) with
        Experiments.Svc_run.keys;
        ops;
        workers_per_shard = 1;
        admission = Engine.Block;
        mix;
        kind;
        theta;
        seed;
      }
      ~rate:2e6
  in
  let r = Engine.run ~store ~config ~start () in
  Alcotest.(check int) "engine completed every op" ops r.Engine.r_completed;
  let stream =
    Workload.Ycsb.create ~mix ~kind ~loaded:keys ~theta ~seed ~thread:0 ~threads:1
  in
  for _ = 1 to ops do
    match Workload.Ycsb.next stream with
    | Workload.Ycsb.Lookup k -> ignore (Index.lookup (on_bare k) k : int option)
    | Workload.Ycsb.Scan (k, n) -> ignore (Index.scan (on_bare k) k n)
    | Workload.Ycsb.Upsert (k, v) | Workload.Ycsb.Insert_new (k, v) ->
        Index.insert (on_bare k) k v
  done;
  same_cost "engine run";
  (* direct store calls *)
  for i = 0 to 299 do
    let k = Key.of_int (i * 5) in
    if i mod 3 = 0 then begin
      ignore (Store.delete store k : bool);
      ignore (Index.delete (on_bare k) k : bool)
    end
    else begin
      Store.insert store k i;
      Index.insert (on_bare k) k i
    end
  done;
  same_cost "direct ops"

(* ---------- determinism ---------- *)

let check_latency_eq what l1 l2 =
  Alcotest.(check int) (what ^ ": sample count") (Workload.Latency.count l1)
    (Workload.Latency.count l2);
  List.iter
    (fun q ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "%s: p%g" what q)
        (Workload.Latency.percentile l1 q)
        (Workload.Latency.percentile l2 q))
    [ 50.0; 99.0; 99.99 ]

let runner_once sys =
  let machine = Nvm.Machine.create ~numa_count:2 () in
  let scale = Experiments.Scale.make ~keys:2_000 ~ops:1_500 ~thread_counts:[] in
  let b = Experiments.Factory.make_backend machine ~scale sys in
  Workload.Runner.run ~machine ~index:b.b_index ?service:b.b_service
    ~mix:Workload.Ycsb.Workload_a ~kind:Workload.Keyset.Int_keys ~loaded:2_000 ~ops:1_500 ~threads:4 ()

let test_runner_deterministic sys () =
  let r1 = runner_once sys and r2 = runner_once sys in
  Alcotest.(check (float 0.0)) "throughput" r1.Workload.Runner.throughput
    r2.Workload.Runner.throughput;
  Alcotest.(check (float 0.0)) "elapsed" r1.Workload.Runner.elapsed
    r2.Workload.Runner.elapsed;
  check_latency_eq "latency" r1.Workload.Runner.latency r2.Workload.Runner.latency;
  Alcotest.(check bool) "identical NVM traffic" true
    (Nvm.Stats.is_zero (Nvm.Stats.diff r1.Workload.Runner.nvm r2.Workload.Runner.nvm))

let svc_cfg sys =
  let d = Experiments.Svc_run.default ~quick:true sys in
  { d with Experiments.Svc_run.shards = 2; keys = 2_000; ops = 1_200 }

let test_engine_deterministic sys () =
  let once () = Experiments.Svc_run.run_point (svc_cfg sys) ~rate:1e6 in
  let r1 = once () and r2 = once () in
  Alcotest.(check int) "generated" r1.Engine.r_generated r2.Engine.r_generated;
  Alcotest.(check int) "completed" r1.Engine.r_completed r2.Engine.r_completed;
  Alcotest.(check int) "rejected" r1.Engine.r_rejected r2.Engine.r_rejected;
  Alcotest.(check (float 0.0)) "elapsed" r1.Engine.r_elapsed r2.Engine.r_elapsed;
  Alcotest.(check (float 0.0)) "throughput" r1.Engine.r_throughput
    r2.Engine.r_throughput;
  Alcotest.(check (array int)) "per-shard completions" r1.Engine.r_shard_completed
    r2.Engine.r_shard_completed;
  check_latency_eq "queue" r1.Engine.r_queue_lat r2.Engine.r_queue_lat;
  check_latency_eq "service" r1.Engine.r_service_lat r2.Engine.r_service_lat;
  check_latency_eq "total" r1.Engine.r_total_lat r2.Engine.r_total_lat;
  Alcotest.(check bool) "identical NVM traffic" true
    (Nvm.Stats.is_zero (Nvm.Stats.diff r1.Engine.r_nvm r2.Engine.r_nvm))

(* ---------- blocking admission + saturation sweep shape ---------- *)

(* Offered load far past capacity under Block: the source waits for
   queue space instead of dropping, so every request completes. *)
let test_block_admission () =
  let cfg = svc_cfg Experiments.Factory.Fastfair_sys in
  let store = Experiments.Svc_run.make_store cfg in
  let start =
    Engine.load ~store ~kind:cfg.Experiments.Svc_run.kind
      ~keys:cfg.Experiments.Svc_run.keys ()
  in
  let config =
    Experiments.Svc_run.engine_config
      { cfg with Experiments.Svc_run.admission = Engine.Block }
      ~rate:200e6
  in
  let r = Engine.run ~store ~config ~start () in
  Alcotest.(check int) "all generated" cfg.Experiments.Svc_run.ops
    r.Engine.r_generated;
  Alcotest.(check int) "blocking admission rejects nothing" 0 r.Engine.r_rejected;
  Alcotest.(check int) "all completed" r.Engine.r_generated r.Engine.r_completed;
  Alcotest.(check bool) "made progress" true (r.Engine.r_throughput > 0.0)

let test_sweep_shape () =
  let cfg = svc_cfg Experiments.Factory.Fastfair_sys in
  let points = Experiments.Svc_run.sweep cfg in
  (match Experiments.Svc_run.check_sweep points with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "sweep shape: %s" msg);
  match Obs.Svc_report.validate (Experiments.Svc_run.report cfg points) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "report schema: %s" msg

(* ---------- input validation ---------- *)

let test_engine_rejects_bad_config () =
  let store = make_store () in
  let base =
    Experiments.Svc_run.engine_config
      {
        (Experiments.Svc_run.default Experiments.Factory.Fastfair_sys) with
        Experiments.Svc_run.keys = 0;
        ops = 10;
      }
      ~rate:2e6
  in
  List.iter
    (fun (what, config) ->
      match Engine.run ~store ~config () with
      | _ -> Alcotest.failf "%s: accepted" what
      | exception Invalid_argument _ -> ())
    [
      ("0 workers per shard", { base with Engine.workers_per_shard = 0 });
      ("-1 workers per shard", { base with Engine.workers_per_shard = -1 });
      ("queue capacity 0", { base with Engine.queue_capacity = 0 });
      ("queue capacity -3", { base with Engine.queue_capacity = -3 });
    ];
  let r = Engine.run ~store ~config:{ base with Engine.queue_capacity = 1; workers_per_shard = 1 } () in
  Alcotest.(check int) "the smallest valid config runs" 10 (r.Engine.r_completed + r.Engine.r_rejected)

(* ---------- crashmc over the sharded store ---------- *)

let store_sut store =
  {
    Baselines.System.b_index = Store.as_index store;
    b_recover = (fun () -> Store.recover store);
    b_invariants = (fun () -> Store.invariants store);
    b_quiesce = (fun () -> Store.quiesce store);
    b_service = None;
  }

let seed () = Int64.to_int (Des.Rng.env_seed ~default:1L)

let test_crashmc_direct () =
  let store = make_store ~numa:1 ~shards:2 ~span:1000 () in
  let r =
    Crashmc.Harness.run ~budget_per_point:16 ~max_states:2_500 ~seed:(seed ())
      ~name:"svc-store[fastfair x2]" ~machine:(Store.machine store)
      ~sut:(store_sut store)
      ~ops:(Crashmc.Harness.mixed_workload ~seed:(seed ()) 24)
      ()
  in
  if not (Crashmc.Harness.ok r) then
    Alcotest.failf "%a@.seed %d (override with PACTREE_SEED)" Crashmc.Harness.pp_report
      r (seed ())

(* Double crash.  A crash during a write, recovery, more acked
   writes, then a crash at every enumerated point of that second
   window and a second recovery.  Both recoveries are judged by the
   durable-linearizability oracle: every acked write is present, the
   one in flight at the crash may or may not be, and nothing else —
   in particular no write the first crash dropped may come back.  The
   state the first recovery produced enters the second window's
   history as decided ops (a delete for each touched key it lacks). *)
let test_double_crash () =
  let store = make_store ~numa:1 ~shards:2 ~span:1000 () in
  let machine = Store.machine store in
  let index = Store.as_index store in
  let decided op = { Crashmc.Oracle.op; start_seq = 0; end_seq = 0 } in
  let record ops =
    let trace = Crashmc.Trace.start machine in
    let history =
      List.map
        (fun op ->
          let start_seq = Crashmc.Trace.seq trace in
          Crashmc.Oracle.run_op index op;
          { Crashmc.Oracle.op; start_seq; end_seq = Crashmc.Trace.seq trace })
        ops
    in
    Crashmc.Trace.stop trace;
    Store.quiesce store;
    (trace, history)
  in
  let recover_and_check ~history (st : Crashmc.Enum.state) what =
    st.Crashmc.Enum.restore ();
    Store.recover store;
    match
      Crashmc.Oracle.check ~history ~at:st.Crashmc.Enum.at ~lookup:(Store.lookup store)
        ~scan:(Store.scan store) ~invariants:(fun () -> Store.invariants store)
    with
    | [] -> ()
    | v :: _ ->
        Alcotest.failf "%s [at=%d %s]: %s (seed %d)" what st.Crashmc.Enum.at
          st.Crashmc.Enum.label v (seed ())
  in
  let prior =
    List.init 24 (fun i -> Crashmc.Oracle.Insert (Key.of_int (i * 41 mod 1000), i))
  in
  List.iter (Crashmc.Oracle.run_op index) prior;
  (* first window: one write on each shard *)
  let first =
    [ Crashmc.Oracle.Insert (Key.of_int 600, 9000); Crashmc.Oracle.Delete (Key.of_int 82) ]
  in
  let trace1, history1 = record first in
  let history1 = List.map decided prior @ history1 in
  let touched =
    List.sort_uniq Key.compare
      (List.map (fun e -> Crashmc.Oracle.op_key e.Crashmc.Oracle.op) history1)
  in
  (* second window: acked writes made after the first recovery *)
  let second =
    [
      Crashmc.Oracle.Insert (Key.of_int 610, 9100);
      Crashmc.Oracle.Insert (Key.of_int 123, 9101);
      Crashmc.Oracle.Delete (Key.of_int 0);
      Crashmc.Oracle.Insert (Key.of_int 600, 9102);
    ]
  in
  let outer = ref 0 and inner = ref 0 in
  let stats1 =
    Crashmc.Enum.iter ~budget_per_point:8 ~seed:(Int64.of_int (seed ())) ~trace:trace1
      ~f:(fun st1 ->
        incr outer;
        recover_and_check ~history:history1 st1 "first recovery";
        let survived =
          List.map
            (fun k ->
              decided
                (match Store.lookup store k with
                | Some v -> Crashmc.Oracle.Insert (k, v)
                | None -> Crashmc.Oracle.Delete k))
            touched
        in
        let trace2, history2 = record second in
        ignore
          (Crashmc.Enum.iter ~budget_per_point:8 ~seed:(Int64.of_int (seed ()))
             ~trace:trace2
             ~f:(fun st2 ->
               incr inner;
               recover_and_check ~history:(survived @ history2) st2
                 (Printf.sprintf "second recovery after [at=%d %s]" st1.Crashmc.Enum.at
                    st1.Crashmc.Enum.label))
             ()
            : Crashmc.Enum.stats))
      ()
  in
  Alcotest.(check bool) "first window has several crash points" true
    (stats1.Crashmc.Enum.crash_points >= 2);
  Alcotest.(check bool)
    (Printf.sprintf "swept enough double-crash states (%d x %d)" !outer !inner)
    true
    (!outer >= 4 && !inner >= 10 * !outer)

let suite =
  [
    Alcotest.test_case "store: routed ops vs map oracle" `Quick
      test_store_ops_vs_oracle;
    Alcotest.test_case "store: cross-shard ordered scan" `Quick test_cross_shard_scan;
    Alcotest.test_case "store: acked writes survive crash" `Quick
      test_acked_writes_survive_crash;
    Alcotest.test_case "store: service layer adds no NVM traffic" `Quick
      test_service_adds_no_nvm_traffic;
    Alcotest.test_case "runner: deterministic (pactree)" `Quick
      (test_runner_deterministic Experiments.Factory.Pactree_sys);
    Alcotest.test_case "runner: deterministic (fastfair)" `Quick
      (test_runner_deterministic Experiments.Factory.Fastfair_sys);
    Alcotest.test_case "engine: deterministic (pactree)" `Quick
      (test_engine_deterministic Experiments.Factory.Pactree_sys);
    Alcotest.test_case "engine: deterministic (fastfair)" `Quick
      (test_engine_deterministic Experiments.Factory.Fastfair_sys);
    Alcotest.test_case "engine: overdriven Block run completes everything" `Quick
      test_block_admission;
    Alcotest.test_case "engine: saturation sweep shape" `Quick test_sweep_shape;
    Alcotest.test_case "engine: rejects workers or queue below 1" `Quick
      test_engine_rejects_bad_config;
    Alcotest.test_case "crashmc: sharded store, direct ops" `Quick test_crashmc_direct;
    Alcotest.test_case "crashmc: double crash, acked writes exact" `Quick
      test_double_crash;
  ]
