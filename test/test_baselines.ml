(* Tests for the comparison indexes: FastFair, BzTree (+PMwCAS),
   FPTree (+HTM), standalone PDL-ART. *)

module Machine = Nvm.Machine
module Key = Pactree.Key

let ik = Key.of_int

let make_machine () = Machine.create ~numa_count:2 ()

(* Generic functional checks run against every index through the
   common interface. *)
let generic_checks (idx : Baselines.Index_intf.index) =
  let open Baselines.Index_intf in
  (* basic *)
  insert idx (ik 5) 50;
  insert idx (ik 1) 10;
  insert idx (ik 3) 30;
  Alcotest.(check (option int)) "hit" (Some 30) (lookup idx (ik 3));
  Alcotest.(check (option int)) "miss" None (lookup idx (ik 2));
  (* upsert *)
  insert idx (ik 3) 31;
  Alcotest.(check (option int)) "upsert" (Some 31) (lookup idx (ik 3));
  (* update *)
  Alcotest.(check bool) "update hit" true (update idx (ik 1) 11);
  Alcotest.(check bool) "update miss" false (update idx (ik 2) 22);
  Alcotest.(check (option int)) "updated" (Some 11) (lookup idx (ik 1));
  (* delete *)
  Alcotest.(check bool) "delete hit" true (delete idx (ik 5));
  Alcotest.(check bool) "delete miss" false (delete idx (ik 5));
  Alcotest.(check (option int)) "deleted" None (lookup idx (ik 5));
  (* bulk + scan *)
  for i = 10 to 500 do
    insert idx (ik (i * 2)) i
  done;
  let r = scan idx (ik 100) 5 in
  Alcotest.(check (list int)) "scan keys" [ 100; 102; 104; 106; 108 ]
    (List.map (fun (k, _) -> Key.to_int k) r);
  for i = 10 to 500 do
    if lookup idx (ik (i * 2)) <> Some i then Alcotest.failf "bulk key %d wrong" (i * 2)
  done

let model_agreement (idx : Baselines.Index_intf.index) seed =
  let open Baselines.Index_intf in
  let rng = Des.Rng.create ~seed in
  let model = Hashtbl.create 256 in
  for _ = 0 to 2999 do
    let k = Des.Rng.int rng 800 in
    match Des.Rng.int rng 5 with
    | 0 | 1 ->
        let v = Des.Rng.int rng 10_000 in
        insert idx (ik k) v;
        Hashtbl.replace model k v
    | 2 ->
        let was = delete idx (ik k) in
        if was <> Hashtbl.mem model k then Alcotest.failf "delete mismatch on %d" k;
        Hashtbl.remove model k
    | 3 ->
        let v = Des.Rng.int rng 10_000 in
        let hit = update idx (ik k) v in
        if hit <> Hashtbl.mem model k then Alcotest.failf "update mismatch on %d" k;
        if hit then Hashtbl.replace model k v
    | _ ->
        if lookup idx (ik k) <> Hashtbl.find_opt model k then
          Alcotest.failf "lookup mismatch on %d" k
  done;
  Hashtbl.iter
    (fun k v ->
      if lookup idx (ik k) <> Some v then Alcotest.failf "final state wrong at %d" k)
    model;
  (* full-range scan equals the sorted model *)
  let expected = List.sort compare (Hashtbl.fold (fun k v l -> (k, v) :: l) model []) in
  let got =
    List.map (fun (k, v) -> (Key.to_int k, v)) (scan idx (ik min_int) 100_000)
  in
  Alcotest.(check int) "scan size" (List.length expected) (List.length got);
  Alcotest.(check bool) "scan = model" true (expected = got)

(* ---------- FastFair ---------- *)

let ff_index ?(string_keys = false) () =
  let m = make_machine () in
  let t = Baselines.Fastfair.create m ~string_keys () in
  (m, t, Baselines.Index_intf.Index ((module Baselines.Fastfair), t))

let test_fastfair_generic () =
  let _, _, idx = ff_index () in
  generic_checks idx

let test_fastfair_model () =
  let _, _, idx = ff_index () in
  model_agreement idx 11L

let test_fastfair_invariants () =
  let _, t, idx = ff_index () in
  for i = 0 to 2999 do
    Baselines.Index_intf.insert idx (ik ((i * 7919) mod 100000)) i
  done;
  Alcotest.(check bool) "sorted chain" true (Baselines.Fastfair.check_invariants t > 1000)

let test_fastfair_string_keys () =
  let _, t, idx = ff_index ~string_keys:true () in
  let words = [ "alpha"; "beta"; "gamma"; "delta"; "epsilon" ] in
  List.iteri (fun i w -> Baselines.Index_intf.insert idx (Key.of_string w) i) words;
  List.iteri
    (fun i w ->
      Alcotest.(check (option int)) w (Some i)
        (Baselines.Index_intf.lookup idx (Key.of_string w)))
    words;
  let r = Baselines.Index_intf.scan idx (Key.of_string "b") 3 in
  Alcotest.(check (list string)) "string scan" [ "beta"; "delta"; "epsilon" ]
    (List.map fst r);
  ignore (Baselines.Fastfair.check_invariants t)

let test_fastfair_string_reads_more_nvm () =
  (* Fig 4's FastFair effect: string keys mean pointer chasing. *)
  let reads string_keys =
    let m = make_machine () in
    let t = Baselines.Fastfair.create m ~string_keys () in
    for i = 0 to 1999 do
      Baselines.Fastfair.insert t (ik (i * 3571 mod 65536)) i
    done;
    let before = Nvm.Stats.snapshot (Machine.total_stats m) in
    let sched = Des.Sched.create () in
    Des.Sched.spawn sched ~name:"reader" (fun () ->
        let rng = Des.Rng.create ~seed:5L in
        for _ = 0 to 1999 do
          ignore (Baselines.Fastfair.lookup t (ik (Des.Rng.int rng 65536)))
        done);
    Des.Sched.run sched;
    Nvm.Stats.total_read_bytes (Nvm.Stats.diff (Machine.total_stats m) before)
  in
  let int_reads = reads false and str_reads = reads true in
  Alcotest.(check bool)
    (Printf.sprintf "string lookups read more NVM (%d vs %d)" str_reads int_reads)
    true
    (str_reads > int_reads)

let test_fastfair_concurrent () =
  let m = make_machine () in
  let t = Baselines.Fastfair.create m () in
  let sched = Des.Sched.create () in
  let threads = 6 and per = 300 in
  for i = 0 to threads - 1 do
    Des.Sched.spawn sched ~numa:(i mod 2) ~name:(Printf.sprintf "w%d" i) (fun () ->
        for j = 0 to per - 1 do
          Baselines.Fastfair.insert t (ik ((j * threads) + i)) j
        done)
  done;
  Des.Sched.run sched;
  Alcotest.(check int) "all keys" (threads * per) (Baselines.Fastfair.check_invariants t);
  for k = 0 to (threads * per) - 1 do
    if Baselines.Fastfair.lookup t (ik k) = None then Alcotest.failf "key %d lost" k
  done

(* ---------- BzTree ---------- *)

let bz_index () =
  let m = make_machine () in
  let t = Baselines.Bztree.create m () in
  (m, t, Baselines.Index_intf.Index ((module Baselines.Bztree), t))

let test_bztree_generic () =
  let _, _, idx = bz_index () in
  generic_checks idx

let test_bztree_model () =
  let _, _, idx = bz_index () in
  model_agreement idx 13L

let test_bztree_consolidates () =
  let _, t, idx = bz_index () in
  for i = 0 to 999 do
    Baselines.Index_intf.insert idx (ik i) i
  done;
  Alcotest.(check bool) "consolidations happened" true
    (Baselines.Bztree.consolidations t > 10);
  Alcotest.(check int) "chain intact" 1000 (Baselines.Bztree.check_invariants t)

let test_bztree_flush_heavy () =
  (* §6.1: BzTree needs ~15 flushes per insert. *)
  let m = make_machine () in
  let t = Baselines.Bztree.create m () in
  for i = 0 to 99 do
    Baselines.Bztree.insert t (ik i) i (* warm up, fill first nodes *)
  done;
  let before = Nvm.Stats.snapshot (Machine.total_stats m) in
  for i = 100 to 199 do
    Baselines.Bztree.insert t (ik i) i
  done;
  let d = Nvm.Stats.diff (Machine.total_stats m) before in
  let per_insert = float_of_int d.Nvm.Stats.flushes /. 100.0 in
  Alcotest.(check bool)
    (Printf.sprintf "heavy flushing (%.1f per insert)" per_insert)
    true (per_insert > 8.0)

let test_bztree_concurrent () =
  let m = make_machine () in
  let t = Baselines.Bztree.create m () in
  let sched = Des.Sched.create () in
  let threads = 6 and per = 200 in
  for i = 0 to threads - 1 do
    Des.Sched.spawn sched ~numa:(i mod 2) ~name:(Printf.sprintf "w%d" i) (fun () ->
        for j = 0 to per - 1 do
          Baselines.Bztree.insert t (ik ((j * threads) + i)) j
        done)
  done;
  Des.Sched.run sched;
  Alcotest.(check int) "all keys" (threads * per) (Baselines.Bztree.check_invariants t);
  for k = 0 to (threads * per) - 1 do
    if Baselines.Bztree.lookup t (ik k) = None then Alcotest.failf "key %d lost" k
  done

(* ---------- HTM model ---------- *)

let test_htm_small_footprint_commits () =
  let htm = Baselines.Htm.create ~seed:1L () in
  let sched = Des.Sched.create () in
  Des.Sched.spawn sched ~name:"t" (fun () ->
      for _ = 0 to 999 do
        Baselines.Htm.execute htm ~footprint_lines:8 (fun () -> ())
      done);
  Des.Sched.run sched;
  let s = Baselines.Htm.stats htm in
  Alcotest.(check bool)
    (Printf.sprintf "few aborts (%d/%d)" s.Baselines.Htm.aborts s.Baselines.Htm.attempts)
    true
    (s.Baselines.Htm.aborts * 10 < s.Baselines.Htm.attempts)

let test_htm_capacity_aborts () =
  (* GC3: abort rate grows with transaction footprint. *)
  let abort_rate footprint =
    let htm = Baselines.Htm.create ~seed:2L () in
    let sched = Des.Sched.create () in
    Des.Sched.spawn sched ~name:"t" (fun () ->
        for _ = 0 to 999 do
          Baselines.Htm.execute htm ~footprint_lines:footprint (fun () -> ())
        done);
    Des.Sched.run sched;
    let s = Baselines.Htm.stats htm in
    float_of_int s.Baselines.Htm.aborts /. float_of_int (max 1 s.Baselines.Htm.commits)
  in
  let small = abort_rate 16 and big = abort_rate 700 in
  Alcotest.(check bool)
    (Printf.sprintf "big footprint aborts more (%.2f vs %.2f)" big small)
    true (big > (small +. 0.3))

let test_htm_conflict_aborts_with_threads () =
  let aborts_with threads =
    let htm = Baselines.Htm.create ~seed:3L () in
    let sched = Des.Sched.create () in
    for i = 0 to threads - 1 do
      Des.Sched.spawn sched ~name:(Printf.sprintf "t%d" i) (fun () ->
          for _ = 0 to 199 do
            Baselines.Htm.execute htm ~footprint_lines:64 ~duration:100e-9 (fun () -> ())
          done)
    done;
    Des.Sched.run sched;
    (Baselines.Htm.stats htm).Baselines.Htm.aborts
  in
  Alcotest.(check bool) "more threads, more aborts" true
    (aborts_with 32 > aborts_with 1)

let test_htm_fallback_progress () =
  (* Even at a huge footprint the fallback lock guarantees progress. *)
  let htm = Baselines.Htm.create ~seed:4L () in
  let sched = Des.Sched.create () in
  let done_count = ref 0 in
  for i = 0 to 3 do
    Des.Sched.spawn sched ~name:(Printf.sprintf "t%d" i) (fun () ->
        for _ = 0 to 99 do
          Baselines.Htm.execute htm ~footprint_lines:100_000 (fun () -> incr done_count)
        done)
  done;
  Des.Sched.run sched;
  Alcotest.(check int) "all bodies ran" 400 !done_count;
  Alcotest.(check bool) "fallbacks used" true
    ((Baselines.Htm.stats htm).Baselines.Htm.fallbacks > 0)

(* ---------- FPTree ---------- *)

let fp_index () =
  let m = make_machine () in
  let t = Baselines.Fptree.create m () in
  (m, t, Baselines.Index_intf.Index ((module Baselines.Fptree), t))

let test_fptree_generic () =
  let _, _, idx = fp_index () in
  generic_checks idx

let test_fptree_model () =
  let _, _, idx = fp_index () in
  model_agreement idx 17L

let test_fptree_recovery_rebuilds () =
  let m, t, idx = fp_index () in
  for i = 0 to 1999 do
    Baselines.Index_intf.insert idx (ik i) i
  done;
  Machine.crash m Machine.Strict;
  Baselines.Fptree.recover t;
  ignore (Baselines.Fptree.check_invariants t);
  for i = 0 to 1999 do
    if Baselines.Fptree.lookup t (ik i) = None then Alcotest.failf "key %d lost" i
  done

let test_fptree_concurrent () =
  let m = make_machine () in
  let t = Baselines.Fptree.create m () in
  let sched = Des.Sched.create () in
  let threads = 6 and per = 200 in
  for i = 0 to threads - 1 do
    Des.Sched.spawn sched ~numa:(i mod 2) ~name:(Printf.sprintf "w%d" i) (fun () ->
        for j = 0 to per - 1 do
          Baselines.Fptree.insert t (ik ((j * threads) + i)) j
        done)
  done;
  Des.Sched.run sched;
  Alcotest.(check int) "all keys" (threads * per) (Baselines.Fptree.check_invariants t);
  Alcotest.(check bool) "htm was exercised" true
    ((Baselines.Fptree.htm_stats t).Baselines.Htm.attempts > 0)

(* ---------- standalone PDL-ART ---------- *)

let pdl_index () =
  let m = make_machine () in
  let t = Baselines.Pdlart.create m () in
  (m, t, Baselines.Index_intf.Index ((module Baselines.Pdlart), t))

let test_pdlart_generic () =
  let _, _, idx = pdl_index () in
  generic_checks idx

let test_pdlart_model () =
  let _, _, idx = pdl_index () in
  model_agreement idx 19L

let test_pdlart_alloc_heavy () =
  (* GA3: every PDL-ART insert allocates at least one NVM object,
     while PACTree's slotted leaves amortise allocation. *)
  let m = make_machine () in
  let t = Baselines.Pdlart.create m () in
  let heap_allocs_pdl () = (Pmalloc.Heap.stats (Baselines.Pdlart.heap t)).Pmalloc.Heap.allocs in
  let before = heap_allocs_pdl () in
  for i = 0 to 499 do
    Baselines.Pdlart.insert t (ik i) i
  done;
  let pdl_allocs = heap_allocs_pdl () - before in
  Alcotest.(check bool)
    (Printf.sprintf "one alloc per insert at least (%d/500)" pdl_allocs)
    true (pdl_allocs >= 500);
  let m2 = make_machine () in
  let cfg =
    {
      Pactree.Tree.default_config with
      data_capacity = 1 lsl 22;
      search_capacity = 1 lsl 21;
    }
  in
  let tree = Pactree.Tree.create m2 ~cfg () in
  let before = (Pmalloc.Heap.stats (Pactree.Tree.data_heap tree)).Pmalloc.Heap.allocs in
  for i = 0 to 499 do
    Pactree.Tree.insert tree (ik i) i
  done;
  let pac_allocs =
    (Pmalloc.Heap.stats (Pactree.Tree.data_heap tree)).Pmalloc.Heap.allocs - before
  in
  Alcotest.(check bool)
    (Printf.sprintf "PACTree amortises allocation (%d vs %d)" pac_allocs pdl_allocs)
    true
    (pac_allocs * 10 < pdl_allocs)

let test_pdlart_crash_recovery () =
  let m, t, idx = pdl_index () in
  for i = 0 to 999 do
    Baselines.Index_intf.insert idx (ik i) i
  done;
  Machine.crash m Machine.Strict;
  Baselines.Pdlart.recover t;
  for i = 0 to 999 do
    if Baselines.Pdlart.lookup t (ik i) = None then Alcotest.failf "key %d lost" i
  done

let suite =
  [
    Alcotest.test_case "fastfair: generic" `Quick test_fastfair_generic;
    Alcotest.test_case "fastfair: model agreement" `Quick test_fastfair_model;
    Alcotest.test_case "fastfair: invariants" `Quick test_fastfair_invariants;
    Alcotest.test_case "fastfair: string keys" `Quick test_fastfair_string_keys;
    Alcotest.test_case "fastfair: string keys read more (Fig 4)" `Quick
      test_fastfair_string_reads_more_nvm;
    Alcotest.test_case "fastfair: concurrent" `Quick test_fastfair_concurrent;
    Alcotest.test_case "bztree: generic" `Quick test_bztree_generic;
    Alcotest.test_case "bztree: model agreement" `Quick test_bztree_model;
    Alcotest.test_case "bztree: consolidation" `Quick test_bztree_consolidates;
    Alcotest.test_case "bztree: flush heavy (§6.1)" `Quick test_bztree_flush_heavy;
    Alcotest.test_case "bztree: concurrent" `Quick test_bztree_concurrent;
    Alcotest.test_case "htm: small footprint commits" `Quick test_htm_small_footprint_commits;
    Alcotest.test_case "htm: capacity aborts (GC3)" `Quick test_htm_capacity_aborts;
    Alcotest.test_case "htm: conflict aborts" `Quick test_htm_conflict_aborts_with_threads;
    Alcotest.test_case "htm: fallback progress" `Quick test_htm_fallback_progress;
    Alcotest.test_case "fptree: generic" `Quick test_fptree_generic;
    Alcotest.test_case "fptree: model agreement" `Quick test_fptree_model;
    Alcotest.test_case "fptree: recovery rebuilds internals" `Quick
      test_fptree_recovery_rebuilds;
    Alcotest.test_case "fptree: concurrent + HTM" `Quick test_fptree_concurrent;
    Alcotest.test_case "pdlart: generic" `Quick test_pdlart_generic;
    Alcotest.test_case "pdlart: model agreement" `Quick test_pdlart_model;
    Alcotest.test_case "pdlart: allocation heavy (GA3)" `Quick test_pdlart_alloc_heavy;
    Alcotest.test_case "pdlart: crash recovery" `Quick test_pdlart_crash_recovery;
  ]
