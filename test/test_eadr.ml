(* Tests for eADR mode (paper §3.5): persistent CPU caches. *)

module Machine = Nvm.Machine
module Pool = Nvm.Pool
module Key = Pactree.Key
module Tree = Pactree.Tree

let eadr_machine () =
  Machine.create ~profile:Nvm.Config.dcpmm_eadr ~numa_count:2 ()

let test_unflushed_stores_survive () =
  let m = eadr_machine () in
  let p = Pool.create m ~name:"eadr" ~numa:0 ~capacity:4096 () in
  Pool.write_int p 0 42;
  (* no clwb, no fence *)
  Machine.crash m Machine.Strict;
  Alcotest.(check int) "store survived without flush" 42 (Pool.read_int p 0)

let test_flush_and_fence_are_free () =
  let m = eadr_machine () in
  let p = Pool.create m ~name:"eadr" ~numa:0 ~capacity:4096 () in
  let before = Nvm.Stats.snapshot (Machine.stats m) in
  Pool.write_int p 0 1;
  Pool.persist p 0 8;
  let d = Nvm.Stats.diff (Machine.stats m) before in
  Alcotest.(check int) "no fences counted" 0 d.Nvm.Stats.fences;
  (* drains still consume media write bandwidth *)
  let dev = Nvm.Stats.snapshot (Nvm.Device.stats (Machine.device m 0)) in
  Alcotest.(check bool) "background drain wrote media" true (dev.Nvm.Stats.media_writes > 0)

(* On eADR a non-temporal store drains each line at once, as a clwb
   does there: durable without a fence, billed to the media, and out of
   the CPU cache, with no line access charged. *)
let test_ntstore_drains () =
  let m = eadr_machine () in
  let p = Pool.create m ~name:"eadr" ~numa:0 ~capacity:4096 () in
  let drains = ref 0 in
  let unsubscribe =
    Machine.subscribe m (function Machine.Drain _ -> incr drains | _ -> ())
  in
  let buf = Bytes.make 8 '\000' in
  Bytes.set_int64_le buf 0 42L;
  let before = Nvm.Stats.snapshot (Machine.total_stats m) in
  Pool.ntstore p 64 buf 0 8;
  let d = Nvm.Stats.diff (Machine.total_stats m) before in
  unsubscribe ();
  Alcotest.(check int) "one drain" 1 !drains;
  Alcotest.(check int) "no line access" 0 (d.Nvm.Stats.cache_hits + d.Nvm.Stats.cache_misses);
  Alcotest.(check int) "no fence" 0 d.Nvm.Stats.fences;
  Alcotest.(check bool) "drain wrote media" true (d.Nvm.Stats.media_writes > 0);
  let before = Nvm.Stats.snapshot (Machine.stats m) in
  Alcotest.(check int) "stored" 42 (Pool.read_int p 64);
  let d = Nvm.Stats.diff (Machine.stats m) before in
  Alcotest.(check int) "the next read misses" 1 d.Nvm.Stats.cache_misses;
  Machine.crash m Machine.Strict;
  Alcotest.(check int) "durable without a fence" 42 (Pool.read_int p 64)

let test_eadr_faster_writes () =
  (* The same write workload must be faster under eADR than ADR
     (persistence off the critical path), §3.5's first claim. *)
  let tput profile =
    let machine = Machine.create ~profile ~numa_count:2 () in
    let cfg =
      {
        Tree.default_config with
        Tree.data_capacity = 1 lsl 23;
        search_capacity = 1 lsl 22;
      }
    in
    let t = Tree.create machine ~cfg () in
    let index = Baselines.Pactree_index.wrap t in
    let service = Experiments.Factory.pactree_service t in
    let r =
      Workload.Runner.run ~machine ~index ~service ~mix:Workload.Ycsb.Load_a
        ~kind:Workload.Keyset.Int_keys ~loaded:0 ~ops:8_000 ~threads:8 ()
    in
    r.Workload.Runner.throughput
  in
  let adr = tput Nvm.Config.dcpmm and eadr = tput Nvm.Config.dcpmm_eadr in
  Alcotest.(check bool)
    (Printf.sprintf "eADR (%.2f M) faster than ADR (%.2f M)" (eadr /. 1e6) (adr /. 1e6))
    true (eadr > adr *. 1.2)

let test_pactree_on_eadr_crash () =
  (* The index works unchanged under eADR and recovery still holds. *)
  let machine = eadr_machine () in
  let cfg =
    {
      Tree.default_config with
      Tree.data_capacity = 1 lsl 22;
      search_capacity = 1 lsl 21;
    }
  in
  let t = Tree.create machine ~cfg () in
  for i = 0 to 1_999 do
    Tree.insert t (Key.of_int i) i
  done;
  Machine.crash machine Machine.Strict;
  ignore (Tree.recover t);
  ignore (Tree.check_invariants t);
  for i = 0 to 1_999 do
    if Tree.lookup t (Key.of_int i) <> Some i then Alcotest.failf "key %d lost" i
  done

let suite =
  [
    Alcotest.test_case "unflushed stores survive" `Quick test_unflushed_stores_survive;
    Alcotest.test_case "flush/fence are free, drains billed" `Quick
      test_flush_and_fence_are_free;
    Alcotest.test_case "a non-temporal store drains at once" `Quick test_ntstore_drains;
    Alcotest.test_case "writes faster than ADR" `Quick test_eadr_faster_writes;
    Alcotest.test_case "PACTree crash/recovery under eADR" `Quick test_pactree_on_eadr_crash;
  ]
