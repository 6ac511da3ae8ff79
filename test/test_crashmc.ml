(* Systematic crash-state model checking (lib/crashmc) as a test
   suite: small bounded sweeps per index so the whole thing stays
   inside tier-1 runtime, plus a mutation check proving the oracle has
   teeth (a dropped clwb must be caught). *)

module Harness = Crashmc.Harness
module Factory = Experiments.Factory
module Oracle = Crashmc.Oracle
module Key = Pactree.Key

let seed () = Int64.to_int (Des.Rng.env_seed ~default:1L)

(* A fresh single-socket machine with small pools: every materialised
   crash state blits the full image. *)
let make_sut sys =
  let machine = Nvm.Machine.create ~numa_count:1 () in
  (machine, Factory.make_backend machine ~scale:Experiments.Scale.crashmc sys)

let check_clean sys ~ops ~budget ~max_states =
  let machine, sut = make_sut sys in
  let r =
    Harness.run ~budget_per_point:budget ~max_states ~seed:(seed ())
      ~name:(Factory.id sys) ~machine ~sut ~ops ()
  in
  if not (Harness.ok r) then
    Alcotest.failf "%a@.seed %d (override with PACTREE_SEED)" Harness.pp_report r
      (seed ())

(* Mixed insert/delete trace on every index. *)
let test_mixed () =
  List.iter
    (fun sys ->
      check_clean sys
        ~ops:(Harness.mixed_workload ~seed:(seed ()) 32)
        ~budget:24 ~max_states:4_000)
    Factory.all

(* Split-heavy monotone inserts: exercises FastFair node splits,
   FPTree leaf splits + micro-log, PACTree data-node SMOs. *)
let test_splits () =
  List.iter
    (fun sys ->
      check_clean sys ~ops:(Harness.insert_workload 72) ~budget:16
        ~max_states:4_000)
    [ Factory.Pactree_sys; Factory.Fastfair_sys; Factory.Fptree_sys ]

(* Teeth: injecting a dropped clwb into the recorded run must produce
   at least one durable-linearizability violation across a small
   mutant family.  If every mutant survives, the checker is
   vacuous. *)
let test_mutation_teeth sys () =
  let killed = ref 0 in
  List.iter
    (fun k ->
      if !killed = 0 then begin
        let machine, sut = make_sut sys in
        Nvm.Machine.set_flush_fault machine (Some k);
        let r =
          Harness.run ~budget_per_point:24 ~max_states:4_000 ~max_violations:1
            ~seed:(seed ()) ~name:(Factory.id sys) ~machine ~sut
            ~ops:(Harness.mixed_workload ~seed:(seed ()) 32)
            ()
        in
        if not (Harness.ok r) then incr killed
      end)
    [ 1; 3; 9; 27; 81; 243 ];
  if !killed = 0 then
    Alcotest.failf "no dropped-clwb mutant caught on %s — checker has no teeth (seed %d)"
      (Factory.id sys) (seed ())

(* Two subscribers on one machine, as in [crashmc --mutate]: a trace
   recorded with the persist-order sanitizer enabled equals one
   recorded alone, and the sanitizer reports what it reports with no
   trace.  A dropped clwb gives the sanitizer something to report. *)
let test_trace_with_sanitizer () =
  let run ~trace ~sanitize =
    let machine, sut = make_sut Factory.Pactree_sys in
    Nvm.Machine.set_flush_fault machine (Some 27);
    if sanitize then Pobj.Sanitizer.enable machine;
    let t = if trace then Some (Crashmc.Trace.start machine) else None in
    List.iter (Oracle.run_op sut.b_index) (Harness.mixed_workload ~seed:(seed ()) 32);
    Option.iter Crashmc.Trace.stop t;
    let reports = Pobj.Sanitizer.reports () in
    Pobj.Sanitizer.disable machine;
    (Option.fold ~none:[||] ~some:Crashmc.Trace.events t, reports)
  in
  let events, reports = run ~trace:true ~sanitize:true in
  let alone, _ = run ~trace:true ~sanitize:false in
  let _, unrecorded = run ~trace:false ~sanitize:true in
  Alcotest.(check bool) "events recorded" true (Array.length events > 0);
  Alcotest.(check bool) "sanitizer reports" true (reports <> []);
  Alcotest.(check bool) "trace unchanged by the sanitizer" true (events = alone);
  Alcotest.(check bool) "reports unchanged by the trace" true (reports = unrecorded)

(* The in-flight window accepts exactly the in-order prefixes of the
   interrupted batch, jointly across keys: a state where a later batch
   member applied without an earlier one (replay skipping a hole) must
   be rejected even though each key's value is individually
   reachable. *)
let test_oracle_prefix_only () =
  let ka = Key.of_int 1 and kb = Key.of_int 2 and kc = Key.of_int 3 in
  let history =
    [
      (* completed before the crash window: decided *)
      { Oracle.op = Oracle.Insert (kc, 7); start_seq = 0; end_seq = 1 };
      (* a two-op batch sharing one trace window, in flight at [at=2] *)
      { Oracle.op = Oracle.Insert (ka, 1); start_seq = 1; end_seq = 3 };
      { Oracle.op = Oracle.Insert (kb, 2); start_seq = 1; end_seq = 3 };
    ]
  in
  let violations state =
    let state = List.sort (fun (a, _) (b, _) -> Key.compare a b) state in
    Oracle.check ~history ~at:2
      ~lookup:(fun k ->
        Option.map snd (List.find_opt (fun (k', _) -> Key.equal k k') state))
      ~scan:(fun k n ->
        List.filteri
          (fun i _ -> i < n)
          (List.filter (fun (k', _) -> Key.compare k' k >= 0) state))
      ~invariants:(fun () -> ())
  in
  List.iter
    (fun (label, state) ->
      Alcotest.(check (list string)) label [] (violations state))
    [
      ("prefix 0 accepted", [ (kc, 7) ]);
      ("prefix 1 accepted", [ (kc, 7); (ka, 1) ]);
      ("prefix 2 accepted", [ (kc, 7); (ka, 1); (kb, 2) ]);
    ];
  List.iter
    (fun (label, state) ->
      Alcotest.(check bool) label true (violations state <> []))
    [
      ("hole-skipping state rejected", [ (kc, 7); (kb, 2) ]);
      ("decided op lost rejected", [ (ka, 1); (kb, 2) ]);
      ("unreachable value rejected", [ (kc, 7); (ka, 99) ]);
    ]

let suite =
  [
    Alcotest.test_case "oracle: joint in-order-prefix check" `Quick
      test_oracle_prefix_only;
    Alcotest.test_case "mixed trace, all indexes" `Quick test_mixed;
    Alcotest.test_case "split-heavy trace" `Quick test_splits;
    Alcotest.test_case "mutation teeth (fastfair)" `Quick
      (test_mutation_teeth Factory.Fastfair_sys);
    Alcotest.test_case "mutation teeth (pactree)" `Quick
      (test_mutation_teeth Factory.Pactree_sys);
    Alcotest.test_case "trace and sanitizer on one machine" `Quick
      test_trace_with_sanitizer;
  ]
