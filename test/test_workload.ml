(* Tests for the YCSB workload substrate and the benchmark runner. *)

module Key = Pactree.Key

let test_zipf_bounds () =
  let rng = Des.Rng.create ~seed:1L in
  let z = Workload.Zipf.create ~n:1000 ~theta:0.99 rng in
  for _ = 1 to 10_000 do
    let v = Workload.Zipf.next z in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 1000)
  done

let test_zipf_skew () =
  (* higher theta concentrates mass on fewer distinct items *)
  let distinct theta =
    let rng = Des.Rng.create ~seed:2L in
    let z = Workload.Zipf.create ~scramble:false ~n:10_000 ~theta rng in
    let seen = Hashtbl.create 64 in
    for _ = 1 to 10_000 do
      Hashtbl.replace seen (Workload.Zipf.next z) ()
    done;
    Hashtbl.length seen
  in
  let low = distinct 0.5 and high = distinct 0.99 in
  Alcotest.(check bool)
    (Printf.sprintf "0.99 hits fewer distinct keys (%d) than 0.5 (%d)" high low)
    true (high < low)

let test_zipf_hottest_rank_zero () =
  let rng = Des.Rng.create ~seed:3L in
  let z = Workload.Zipf.create ~scramble:false ~n:1000 ~theta:0.9 rng in
  let counts = Array.make 1000 0 in
  for _ = 1 to 50_000 do
    let v = Workload.Zipf.next z in
    counts.(v) <- counts.(v) + 1
  done;
  let max_idx = ref 0 in
  Array.iteri (fun i c -> if c > counts.(!max_idx) then max_idx := i) counts;
  Alcotest.(check int) "rank 0 hottest" 0 !max_idx

let test_zipf_uniform_theta0 () =
  let rng = Des.Rng.create ~seed:4L in
  let z = Workload.Zipf.create ~n:100 ~theta:0.0 rng in
  let counts = Array.make 100 0 in
  for _ = 1 to 100_000 do
    counts.(Workload.Zipf.next z) <- counts.(Workload.Zipf.next z) + 1
  done;
  let min_c = Array.fold_left min max_int counts in
  let max_c = Array.fold_left max 0 counts in
  Alcotest.(check bool)
    (Printf.sprintf "roughly uniform (%d..%d)" min_c max_c)
    true
    (float_of_int max_c < 2.0 *. float_of_int min_c)

let test_keyset_unique_and_sized () =
  let seen = Hashtbl.create 1024 in
  for i = 0 to 9_999 do
    let k = Workload.Keyset.key Workload.Keyset.Int_keys i in
    Alcotest.(check int) "int key size" 8 (String.length k);
    if Hashtbl.mem seen k then Alcotest.failf "duplicate int key at %d" i;
    Hashtbl.add seen k ()
  done;
  let k = Workload.Keyset.key Workload.Keyset.String_keys 123 in
  Alcotest.(check int) "string key size (23B, paper)" 23 (String.length k)

let test_latency_percentiles () =
  let rec_ = Workload.Latency.create ~sample_rate:1.0 (Des.Rng.create ~seed:5L) in
  for i = 1 to 100 do
    Workload.Latency.record rec_ (float_of_int i)
  done;
  Alcotest.(check (float 1.0)) "p50" 50.0 (Workload.Latency.percentile rec_ 50.0);
  Alcotest.(check (float 1.0)) "p99" 99.0 (Workload.Latency.percentile rec_ 99.0);
  Alcotest.(check (float 1.0)) "p100" 100.0 (Workload.Latency.percentile rec_ 100.0)

(* [Latency.percentile] against a [List.sort compare] nearest-rank
   reference, bit for bit: duplicates (values drawn from a few levels),
   zeros, sizes 0 and 1 and 1023-1025 (the sample array starts at 1024
   and doubles), and more samples recorded after a percentile has
   sorted the first ones. *)
let test_latency_prop_reference =
  let reference samples p =
    match List.sort compare samples with
    | [] -> 0.0
    | sorted ->
        let n = List.length sorted in
        List.nth sorted (int_of_float (Float.of_int (n - 1) *. p /. 100.0))
  in
  QCheck.Test.make ~name:"latency: percentile = sorted nearest rank" ~count:60
    QCheck.(
      quad
        (oneofl [ 0; 1; 2; 7; 1023; 1024; 1025 ])
        (oneofl [ 0; 1; 3; 1024 ])
        (int_range 1 20) small_nat)
    (fun (size, more, levels, seed) ->
      let rng = Des.Rng.create ~seed:(Int64.of_int seed) in
      let draw () =
        match Des.Rng.int rng 4 with
        | 0 -> 0.0
        | 1 -> Des.Rng.float rng *. 1e-5
        | _ -> float_of_int (Des.Rng.int rng levels) *. 1e-7
      in
      let l = Workload.Latency.create ~sample_rate:1.0 (Des.Rng.create ~seed:1L) in
      let samples = ref [] in
      let add n =
        for _ = 1 to n do
          let v = draw () in
          samples := v :: !samples;
          Workload.Latency.record l v
        done
      in
      let check () =
        List.iter
          (fun p ->
            let got = Workload.Latency.percentile l p and want = reference !samples p in
            if Int64.bits_of_float got <> Int64.bits_of_float want then
              QCheck.Test.fail_reportf "p%g of %d samples: %h, reference %h" p
                (List.length !samples) got want)
          [ 0.0; 1.0; 25.0; 50.0; 90.0; 99.0; 99.9; 99.99; 100.0 ]
      in
      add size;
      check ();
      add more;
      check ();
      true)

let test_ycsb_mix_ratios () =
  let count_ops mix =
    let s =
      Workload.Ycsb.create ~mix ~kind:Workload.Keyset.Int_keys ~loaded:1000 ~theta:0.5
        ~seed:6L ~thread:0 ~threads:1
    in
    let lookups = ref 0 and upserts = ref 0 and inserts = ref 0 and scans = ref 0 in
    for _ = 1 to 10_000 do
      match Workload.Ycsb.next s with
      | Workload.Ycsb.Lookup _ -> incr lookups
      | Workload.Ycsb.Upsert _ -> incr upserts
      | Workload.Ycsb.Insert_new _ -> incr inserts
      | Workload.Ycsb.Scan _ -> incr scans
    done;
    (!lookups, !upserts, !inserts, !scans)
  in
  let l, _, i, _ = count_ops Workload.Ycsb.Workload_a in
  Alcotest.(check bool) "A is ~50/50 lookup/insert" true (abs (l - i) < 600);
  let l, _, i, _ = count_ops Workload.Ycsb.Workload_b in
  Alcotest.(check bool) "B is ~95/5" true (l > 9_200 && i < 800);
  let l, u, _, _ = count_ops Workload.Ycsb.Skew_update in
  Alcotest.(check bool) "skew-update is ~50/50 lookup/update" true (abs (l - u) < 600);
  let l, _, _, _ = count_ops Workload.Ycsb.Workload_c in
  Alcotest.(check int) "C is read-only" 10_000 l;
  let _, _, i, s = count_ops Workload.Ycsb.Workload_e in
  Alcotest.(check bool) "E is ~95 scan/5 insert" true (s > 9_200 && i < 800)

let test_ycsb_deterministic () =
  let stream () =
    let s =
      Workload.Ycsb.create ~mix:Workload.Ycsb.Workload_a ~kind:Workload.Keyset.Int_keys
        ~loaded:100 ~theta:0.9 ~seed:7L ~thread:3 ~threads:8
    in
    List.init 100 (fun _ -> Workload.Ycsb.next s)
  in
  Alcotest.(check bool) "same stream twice" true (stream () = stream ())

let test_ycsb_fresh_keys_disjoint () =
  let keys_of thread =
    let s =
      Workload.Ycsb.create ~mix:Workload.Ycsb.Load_a ~kind:Workload.Keyset.Int_keys
        ~loaded:0 ~theta:0.0 ~seed:8L ~thread ~threads:4
    in
    List.init 50 (fun _ ->
        match Workload.Ycsb.next s with
        | Workload.Ycsb.Insert_new (k, _) -> k
        | _ -> Alcotest.fail "load should only insert")
  in
  let all = List.concat_map keys_of [ 0; 1; 2; 3 ] in
  Alcotest.(check int) "disjoint across threads" (List.length all)
    (List.length (List.sort_uniq compare all))

(* ---------- end-to-end runner smoke tests ---------- *)

let small_tree machine =
  let cfg =
    {
      Pactree.Tree.default_config with
      data_capacity = 1 lsl 23;
      search_capacity = 1 lsl 22;
    }
  in
  Pactree.Tree.create machine ~cfg ()

let pactree_service t =
  {
    Workload.Runner.body = (fun () -> Pactree.Tree.updater_loop t);
    shutdown = (fun () -> Pactree.Tree.request_shutdown t);
  }

let test_runner_pactree_ycsb_a () =
  let machine = Nvm.Machine.create ~numa_count:2 () in
  let t = small_tree machine in
  let index = Baselines.Pactree_index.wrap t in
  let r =
    Workload.Runner.run ~machine ~index ~service:(pactree_service t)
      ~mix:Workload.Ycsb.Workload_a ~kind:Workload.Keyset.Int_keys ~loaded:5_000
      ~ops:5_000 ~threads:8 ()
  in
  Alcotest.(check bool) "positive throughput" true (r.Workload.Runner.throughput > 0.0);
  Alcotest.(check bool) "simulated time advanced" true (r.Workload.Runner.elapsed > 0.0);
  Alcotest.(check bool) "latency sampled" true (Workload.Latency.count r.Workload.Runner.latency > 100);
  Alcotest.(check bool) "nvm traffic recorded" true
    (Nvm.Stats.total_read_bytes r.Workload.Runner.nvm > 0);
  (* the index is intact afterwards *)
  Pactree.Tree.drain_smo t;
  ignore (Pactree.Tree.check_invariants t)

let test_runner_all_indexes_agree_on_c () =
  (* All five indexes, loaded identically, must return identical
     counters for a read-only workload (they index the same data). *)
  let loaded = 2_000 and ops = 1_000 in
  let run_index make =
    let machine = Nvm.Machine.create ~numa_count:2 () in
    let index, service = make machine in
    let r =
      Workload.Runner.run ~machine ~index ?service ~mix:Workload.Ycsb.Workload_c
        ~kind:Workload.Keyset.Int_keys ~loaded ~ops ~threads:4 ()
    in
    Alcotest.(check bool) "ran" true (r.Workload.Runner.throughput > 0.0)
  in
  run_index (fun m ->
      let t = small_tree m in
      (Baselines.Pactree_index.wrap t, Some (pactree_service t)));
  run_index (fun m ->
      let t = Baselines.Fastfair.create m () in
      (Baselines.Index_intf.Index ((module Baselines.Fastfair), t), None));
  run_index (fun m ->
      let t = Baselines.Bztree.create m () in
      (Baselines.Index_intf.Index ((module Baselines.Bztree), t), None));
  run_index (fun m ->
      let t = Baselines.Fptree.create m () in
      (Baselines.Index_intf.Index ((module Baselines.Fptree), t), None));
  run_index (fun m ->
      let t = Baselines.Pdlart.create m () in
      (Baselines.Index_intf.Index ((module Baselines.Pdlart), t), None))

let test_runner_scaling_shape () =
  (* More threads must not reduce total work done per simulated second
     for a read-mostly workload at small thread counts. *)
  let tput threads =
    let machine = Nvm.Machine.create ~numa_count:2 () in
    let t = small_tree machine in
    let index = Baselines.Pactree_index.wrap t in
    let r =
      Workload.Runner.run ~machine ~index ~service:(pactree_service t)
        ~mix:Workload.Ycsb.Workload_c ~kind:Workload.Keyset.Int_keys ~loaded:4_000
        ~ops:4_000 ~threads ()
    in
    r.Workload.Runner.throughput
  in
  let t1 = tput 1 and t8 = tput 8 in
  Alcotest.(check bool)
    (Printf.sprintf "8 threads faster than 1 (%.2f vs %.2f Mops)" (t8 /. 1e6) (t1 /. 1e6))
    true (t8 > t1 *. 2.0)

(* ---------- qcheck properties for the Zipf generator ---------- *)

let zipf_counts ~scramble ~n ~theta ~seed ~draws =
  let rng = Des.Rng.create ~seed:(Int64.of_int seed) in
  let z = Workload.Zipf.create ~scramble ~n ~theta rng in
  let counts = Array.make n 0 in
  for _ = 1 to draws do
    let v = Workload.Zipf.next z in
    if v < 0 || v >= n then QCheck.Test.fail_reportf "out of range: %d (n=%d)" v n;
    counts.(v) <- counts.(v) + 1
  done;
  counts

(* Unscrambled rank frequencies are monotone non-increasing in rank,
   up to multinomial noise (5-sigma one-sided slack per adjacent
   pair, so a genuine inversion of the underlying distribution fails
   while sampling jitter between near-equal ranks does not). *)
let test_zipf_prop_monotone =
  QCheck.Test.make ~name:"zipf: rank frequencies monotone (unscrambled)" ~count:25
    QCheck.(triple (int_range 2 40) (int_range 20 99) small_nat)
    (fun (n, theta_pct, seed) ->
      let theta = float_of_int theta_pct /. 100.0 in
      let counts = zipf_counts ~scramble:false ~n ~theta ~seed ~draws:20_000 in
      Array.iteri
        (fun i c ->
          if i + 1 < n then begin
            let next = counts.(i + 1) in
            let slack = (5.0 *. sqrt (float_of_int (c + next + 1))) +. 10.0 in
            if float_of_int next > float_of_int c +. slack then
              QCheck.Test.fail_reportf
                "rank %d drawn %d times but rank %d drawn %d (n=%d theta=%.2f)" i c
                (i + 1) next n theta
          end)
        counts;
      true)

(* theta = 0 degenerates to uniform: a chi-square statistic over the
   item counts stays within 5 sigma of its df = n-1 expectation. *)
let test_zipf_prop_theta0_uniform =
  QCheck.Test.make ~name:"zipf: theta=0 is uniform (chi-square)" ~count:25
    QCheck.(triple (int_range 2 100) bool small_nat)
    (fun (n, scramble, seed) ->
      let draws = 50 * n in
      let counts = zipf_counts ~scramble ~n ~theta:0.0 ~seed ~draws in
      let expected = float_of_int draws /. float_of_int n in
      let chi2 =
        Array.fold_left
          (fun acc c ->
            let d = float_of_int c -. expected in
            acc +. (d *. d /. expected))
          0.0 counts
      in
      let df = float_of_int (n - 1) in
      let bound = df +. (5.0 *. sqrt (2.0 *. df)) +. 10.0 in
      if chi2 > bound then
        QCheck.Test.fail_reportf "chi2 %.1f > %.1f (n=%d, scramble=%b)" chi2 bound n
          scramble;
      true)

(* Draws stay in [0, n) at the size boundaries: n = 1 (only 0), n = 2,
   and a key-space much larger than the sample count. *)
let test_zipf_prop_boundary_sizes =
  QCheck.Test.make ~name:"zipf: in range at size boundaries" ~count:25
    QCheck.(triple bool (int_range 20 99) small_nat)
    (fun (scramble, theta_pct, seed) ->
      let theta = float_of_int theta_pct /. 100.0 in
      let one = zipf_counts ~scramble ~n:1 ~theta ~seed ~draws:500 in
      if one.(0) <> 500 then QCheck.Test.fail_reportf "n=1 must always draw 0";
      ignore (zipf_counts ~scramble ~n:2 ~theta ~seed ~draws:500 : int array);
      let rng = Des.Rng.create ~seed:(Int64.of_int seed) in
      let z = Workload.Zipf.create ~scramble ~n:1_000_000 ~theta rng in
      for _ = 1 to 2_000 do
        let v = Workload.Zipf.next z in
        if v < 0 || v >= 1_000_000 then
          QCheck.Test.fail_reportf "out of range at n=1e6: %d" v
      done;
      true)

let suite =
  [
    Alcotest.test_case "zipf: bounds" `Quick test_zipf_bounds;
    Alcotest.test_case "zipf: skew ordering" `Quick test_zipf_skew;
    Alcotest.test_case "zipf: rank 0 hottest" `Quick test_zipf_hottest_rank_zero;
    Alcotest.test_case "zipf: theta=0 uniform" `Quick test_zipf_uniform_theta0;
    Alcotest.test_case "keyset: unique, right sizes" `Quick test_keyset_unique_and_sized;
    Alcotest.test_case "latency: percentiles" `Quick test_latency_percentiles;
    Alcotest.test_case "ycsb: mix ratios" `Quick test_ycsb_mix_ratios;
    Alcotest.test_case "ycsb: deterministic" `Quick test_ycsb_deterministic;
    Alcotest.test_case "ycsb: fresh keys disjoint" `Quick test_ycsb_fresh_keys_disjoint;
    Alcotest.test_case "runner: PACTree YCSB-A end-to-end" `Quick test_runner_pactree_ycsb_a;
    Alcotest.test_case "runner: all five indexes run C" `Quick
      test_runner_all_indexes_agree_on_c;
    Alcotest.test_case "runner: thread scaling shape" `Quick test_runner_scaling_shape;
    QCheck_alcotest.to_alcotest test_zipf_prop_monotone;
    QCheck_alcotest.to_alcotest test_zipf_prop_theta0_uniform;
    QCheck_alcotest.to_alcotest test_zipf_prop_boundary_sizes;
    QCheck_alcotest.to_alcotest test_latency_prop_reference;
  ]
