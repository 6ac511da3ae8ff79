(* Additional crash-consistency torture tests: interleaved crash
   points, flaky-mode sweeps, and cross-layer recovery interactions
   beyond the targeted cases in test_tree.ml. *)

module Machine = Nvm.Machine
module Key = Pactree.Key
module Tree = Pactree.Tree

let ik = Key.of_int

(* All stochastic choices below derive from this seed; export
   PACTREE_SEED to replay a printed failure exactly. *)
let base_seed = Des.Rng.env_seed ~default:0L

let seed_of n = Int64.add base_seed (Int64.of_int n)

let cfg =
  {
    Tree.default_config with
    Tree.data_capacity = 1 lsl 23;
    search_capacity = 1 lsl 22;
  }

(* Crash at a precise simulated instant during a single-writer run;
   sweep the crash time across the whole run.  Every acknowledged
   insert must survive; invariants must hold. *)
let test_crash_time_sweep () =
  List.iter
    (fun crash_at ->
      let machine = Machine.create ~numa_count:2 () in
      let t = Tree.create machine ~cfg () in
      let acked = ref [] in
      let sched = Des.Sched.create () in
      Des.Sched.spawn sched ~name:"updater" (fun () -> Tree.updater_loop t);
      Des.Sched.spawn sched ~name:"writer" (fun () ->
          for i = 0 to 2_999 do
            Tree.insert t (ik i) i;
            acked := i :: !acked
          done;
          Tree.request_shutdown t);
      Des.Sched.spawn sched ~name:"crasher" (fun () ->
          Des.Sched.delay crash_at;
          Des.Sched.abort_all sched;
          Machine.crash machine Machine.Strict);
      Des.Sched.run sched;
      ignore (Tree.recover t);
      ignore (Tree.check_invariants t);
      List.iter
        (fun i ->
          if Tree.lookup t (ik i) <> Some i then
            Alcotest.failf "crash at %.2e: acked key %d lost" crash_at i)
        !acked)
    [ 1e-6; 5e-6; 2e-5; 1e-4; 5e-4; 2e-3 ]

(* Flaky crashes with survival probabilities from 0 to 1: durability
   of acknowledged writes must not depend on luck. *)
let test_flaky_probability_sweep () =
  List.iteri
    (fun run p ->
      let machine = Machine.create ~numa_count:2 () in
      let t = Tree.create machine ~cfg () in
      for i = 0 to 1_999 do
        Tree.insert t (ik i) (i * 3)
      done;
      let rng = Des.Rng.create ~seed:(seed_of (run + 77)) in
      Machine.crash machine (Machine.Flaky (p, rng));
      ignore (Tree.recover t);
      ignore (Tree.check_invariants t);
      for i = 0 to 1_999 do
        if Tree.lookup t (ik i) <> Some (i * 3) then
          Alcotest.failf "flaky p=%.2f: key %d lost (base seed %Ld, PACTREE_SEED replays)"
            p i base_seed
      done)
    [ 0.0; 0.1; 0.3; 0.5; 0.7; 0.9; 1.0 ]

(* Crash while deletes/merges are in flight; deleted keys must stay
   deleted once acknowledged, survivors must survive. *)
let test_crash_during_merges () =
  let machine = Machine.create ~numa_count:2 () in
  let t = Tree.create machine ~cfg () in
  for i = 0 to 2_999 do
    Tree.insert t (ik i) i
  done;
  let deleted = ref [] in
  let sched = Des.Sched.create () in
  Des.Sched.spawn sched ~name:"updater" (fun () -> Tree.updater_loop t);
  Des.Sched.spawn sched ~name:"deleter" (fun () ->
      for i = 0 to 2_999 do
        if i mod 3 <> 0 then begin
          ignore (Tree.delete t (ik i));
          deleted := i :: !deleted
        end
      done;
      Tree.request_shutdown t);
  Des.Sched.spawn sched ~name:"crasher" (fun () ->
      Des.Sched.delay 3e-4;
      Des.Sched.abort_all sched;
      Machine.crash machine Machine.Strict);
  Des.Sched.run sched;
  ignore (Tree.recover t);
  ignore (Tree.check_invariants t);
  List.iter
    (fun i ->
      if Tree.lookup t (ik i) <> None then
        Alcotest.failf "acked delete of %d resurrected" i)
    !deleted

(* Crash DURING recovery (a second power failure), then recover again. *)
let test_crash_during_recovery () =
  let machine = Machine.create ~numa_count:2 () in
  let t = Tree.create machine ~cfg () in
  let sched = Des.Sched.create () in
  Des.Sched.spawn sched ~name:"writer" (fun () ->
      for i = 0 to 1_999 do
        Tree.insert t (ik i) i
      done);
  Des.Sched.spawn sched ~name:"crasher" (fun () ->
      Des.Sched.delay 2e-4;
      Des.Sched.abort_all sched;
      Machine.crash machine Machine.Strict);
  Des.Sched.run sched;
  (* run recovery inside a sim and crash it partway *)
  let sched2 = Des.Sched.create () in
  Des.Sched.spawn sched2 ~name:"recoverer" (fun () -> ignore (Tree.recover t));
  Des.Sched.spawn sched2 ~name:"crasher" (fun () ->
      Des.Sched.delay 2e-5;
      Des.Sched.abort_all sched2;
      Machine.crash machine Machine.Strict);
  Des.Sched.run sched2;
  (* final, uninterrupted recovery *)
  ignore (Tree.recover t);
  ignore (Tree.check_invariants t);
  (* all acknowledged (completed) inserts from before the first crash
     would have been tracked by the writer; here we just require a
     consistent, writable index *)
  Tree.insert t (ik 999_983) 1;
  Alcotest.(check (option int)) "writable after double crash" (Some 1)
    (Tree.lookup t (ik 999_983))

(* Scans immediately after recovery must be sorted and complete. *)
let test_scan_after_recovery () =
  let machine = Machine.create ~numa_count:2 () in
  let t = Tree.create machine ~cfg () in
  for i = 0 to 1_999 do
    Tree.insert t (ik (i * 2)) i
  done;
  Machine.crash machine Machine.Strict;
  ignore (Tree.recover t);
  let r = Tree.scan t (ik 0) 2_000 in
  Alcotest.(check int) "all pairs" 2_000 (List.length r);
  let keys = List.map (fun (k, _) -> Key.to_int k) r in
  Alcotest.(check bool) "sorted" true (keys = List.sort compare keys)

(* The PMDK heap itself must survive arbitrary crash/recover cycles
   interleaved with allocation and free. *)
let test_heap_crash_cycles () =
  let machine = Machine.create ~numa_count:1 () in
  let heap =
    Pmalloc.Heap.create machine ~kind:Pmalloc.Heap.Pmdk ~name:"torture" ~numa_pools:1
      ~capacity:(1 lsl 20) ()
  in
  let dest = Nvm.Pool.create machine ~name:"dest" ~numa:0 ~capacity:4096 () in
  let rng = Des.Rng.create ~seed:(seed_of 55) in
  let live = ref [] in
  for round = 0 to 19 do
    for _ = 0 to 9 do
      if Des.Rng.bool rng || !live = [] then begin
        let size = 16 + Des.Rng.int rng 200 in
        let ptr = Pmalloc.Heap.alloc_to heap ~size ~dest_pool:dest ~dest_off:0 () in
        live := ptr :: !live
      end
      else begin
        match !live with
        | p :: rest ->
            Pmalloc.Heap.free heap p;
            live := rest
        | [] -> ()
      end
    done;
    Machine.crash machine Machine.Strict;
    Pmalloc.Heap.recover heap;
    ignore round
  done;
  (* allocations still work and produce distinct blocks *)
  let a = Pmalloc.Heap.alloc heap 64 and b = Pmalloc.Heap.alloc heap 64 in
  Alcotest.(check bool) "distinct after cycles" false (Pmalloc.Pptr.equal a b)

let suite =
  [
    Alcotest.test_case "crash-time sweep" `Quick test_crash_time_sweep;
    Alcotest.test_case "flaky probability sweep" `Quick test_flaky_probability_sweep;
    Alcotest.test_case "crash during merges" `Quick test_crash_during_merges;
    Alcotest.test_case "crash during recovery" `Quick test_crash_during_recovery;
    Alcotest.test_case "scan after recovery" `Quick test_scan_after_recovery;
    Alcotest.test_case "heap crash cycles" `Quick test_heap_crash_cycles;
  ]
