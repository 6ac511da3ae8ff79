(* One generator per table/figure of the paper's evaluation (see
   DESIGN.md §3 for the experiment index).  Each prints the same rows
   / series the paper plots; EXPERIMENTS.md records paper-vs-measured
   shapes. *)

module Machine = Nvm.Machine
module Config = Nvm.Config
module Stats = Nvm.Stats
module Runner = Workload.Runner
module Ycsb = Workload.Ycsb
module Keyset = Workload.Keyset
module Tree = Pactree.Tree
module Key = Pactree.Key

let printf = Format.printf

let header title = printf "@.=== %s ===@." title

let gb bytes = float_of_int bytes /. 1e9

let run_one ?(protocol = Config.Snoop) ?(profile = Config.dcpmm) ?(string_keys = false)
    ?cfg ?(theta = 0.99) ?threads ~scale ~mix sys =
  let machine = Machine.create ~profile ~protocol ~numa_count:2 () in
  let b = Factory.make_backend machine ~string_keys ?cfg sys in
  let threads = Option.value ~default:28 threads in
  let kind = if string_keys then Keyset.String_keys else Keyset.Int_keys in
  Runner.run ~machine ~index:b.b_index ?service:b.b_service ~mix ~kind
    ~loaded:scale.Scale.keys ~ops:scale.Scale.ops ~threads ~theta ()

(* ---- Figure 2: FastFair under snoop vs directory coherence ---- *)

let fig2 scale =
  header "Figure 2: FastFair YCSB-A (int keys), snoop vs directory coherence";
  printf "%8s %14s %14s@." "threads" "snoop Mops" "directory Mops";
  List.iter
    (fun threads ->
      let m protocol =
        Runner.mops
          (run_one ~protocol ~threads ~scale ~mix:Ycsb.Workload_a Factory.Fastfair_sys)
      in
      printf "%8d %14.2f %14.2f@." threads (m Config.Snoop) (m Config.Directory))
    scale.Scale.thread_counts

(* ---- Figure 3: PDL-ART insert-only, PMDK vs volatile allocator ---- *)

let fig3 scale =
  header "Figure 3: PDL-ART insert-only (int keys), allocator comparison";
  let m kind =
    let machine = Machine.create ~numa_count:2 () in
    let t = Baselines.Pdlart.create machine ~alloc_kind:kind () in
    let index = Baselines.Index_intf.Index ((module Baselines.Pdlart.Index), t) in
    Runner.mops
      (Runner.run ~machine ~index ~mix:Ycsb.Load_a ~kind:Keyset.Int_keys ~loaded:0
         ~ops:scale.Scale.ops ~threads:28 ())
  in
  let jemalloc = m Pmalloc.Heap.Volatile_meta in
  let pmdk = m Pmalloc.Heap.Pmdk in
  printf "%-22s %8.2f Mops@." "Jemalloc (volatile)" jemalloc;
  printf "%-22s %8.2f Mops (%.1fx slower)@." "PMDK (crash-consistent)" pmdk
    (jemalloc /. pmdk)

(* ---- Figure 4: lookup throughput and NVM reads, FastFair vs PDL-ART ---- *)

let fig4 scale =
  header "Figure 4: 100% lookups (YCSB-C): throughput and NVM reads";
  printf "%10s %10s %12s %14s@." "index" "keys" "Mops" "NVM read (GB)";
  List.iter
    (fun (sys, string_keys) ->
      let r = run_one ~string_keys ~scale ~mix:Ycsb.Workload_c sys in
      printf "%10s %10s %12.2f %14.3f@." (Factory.name sys)
        (if string_keys then "string" else "int")
        (Runner.mops r)
        (gb (Stats.total_read_bytes r.Runner.nvm)))
    [
      (Factory.Fastfair_sys, false);
      (Factory.Pdlart_sys, false);
      (Factory.Fastfair_sys, true);
      (Factory.Pdlart_sys, true);
    ]

(* ---- Figure 5: scan throughput and NVM reads ---- *)

let fig5 scale =
  header "Figure 5: scan operations (int keys): throughput and NVM reads";
  printf "%10s %12s %14s@." "index" "Mops" "NVM read (GB)";
  List.iter
    (fun sys ->
      let r = run_one ~scale ~mix:Ycsb.Workload_e sys in
      printf "%10s %12.2f %14.3f@." (Factory.name sys) (Runner.mops r)
        (gb (Stats.total_read_bytes r.Runner.nvm)))
    [ Factory.Fastfair_sys; Factory.Pdlart_sys ]

(* ---- Figure 6: FPTree HTM aborts vs data size and threads ---- *)

let fig6 scale =
  header "Figure 6: FPTree HTM aborts (50% lookup / 50% insert)";
  printf "%8s %12s %12s %12s %12s@." "threads" "small Mops" "small ab/op" "big Mops"
    "big ab/op";
  let sizes = (scale.Scale.keys / 4, scale.Scale.keys * 2) in
  let run keys threads =
    let machine = Machine.create ~numa_count:2 () in
    let t = Baselines.Fptree.create machine () in
    let index = Baselines.Index_intf.Index ((module Baselines.Fptree.Index), t) in
    let r =
      Runner.run ~machine ~index ~mix:Ycsb.Skew_insert ~kind:Keyset.Int_keys
        ~loaded:keys ~ops:scale.Scale.ops ~threads ()
    in
    let h = Baselines.Fptree.htm_stats t in
    let aborts_per_op =
      float_of_int h.Baselines.Htm.aborts /. float_of_int (max 1 r.Runner.ops)
    in
    (Runner.mops r, aborts_per_op)
  in
  List.iter
    (fun threads ->
      let small_keys, big_keys = sizes in
      let ms, asml = run small_keys threads in
      let mb, abig = run big_keys threads in
      printf "%8d %12.2f %12.2f %12.2f %12.2f@." threads ms asml mb abig)
    scale.Scale.thread_counts

(* ---- Figures 9/10: YCSB sweeps over all indexes ---- *)

let ycsb_sweep ~string_keys scale =
  let mixes = Ycsb.all_mixes in
  let systems = List.filter (fun s -> (not string_keys) || Factory.supports_strings s) Factory.all in
  List.iter
    (fun mix ->
      printf "@.-- %a (%s keys, Zipfian) --@." Ycsb.pp_mix mix
        (if string_keys then "string" else "int");
      printf "%8s" "threads";
      List.iter (fun s -> printf " %10s" (Factory.name s)) systems;
      printf "@.";
      List.iter
        (fun threads ->
          printf "%8d" threads;
          List.iter
            (fun sys ->
              let r = run_one ~string_keys ~threads ~scale ~mix sys in
              printf " %10.2f" (Runner.mops r))
            systems;
          printf "@.")
        scale.Scale.thread_counts)
    mixes

let fig9 scale =
  header "Figure 9: YCSB, string keys, Zipfian (Mops/s)";
  ycsb_sweep ~string_keys:true scale

let fig10 scale =
  header "Figure 10: YCSB, integer keys, Zipfian (Mops/s)";
  ycsb_sweep ~string_keys:false scale

(* ---- Figure 11: low-bandwidth NVM machine ---- *)

let fig11 scale =
  header "Figure 11: low-bandwidth NVM machine, 32 threads, uniform (Mops/s)";
  printf "%8s" "mix";
  List.iter (fun s -> printf " %10s" (Factory.name s)) Factory.all;
  printf "@.";
  List.iter
    (fun mix ->
      printf "%8s" (Format.asprintf "%a" Ycsb.pp_mix mix);
      List.iter
        (fun sys ->
          let r =
            run_one ~profile:Config.dcpmm_low_bw ~threads:32 ~theta:0.0 ~scale ~mix sys
          in
          printf " %10.2f" (Runner.mops r))
        Factory.all;
      printf "@.")
    Ycsb.all_mixes

(* ---- Figure 12: factor analysis ---- *)

let fig12 scale =
  header "Figure 12: factor analysis (string keys, 28 threads, Mops/s)";
  let base_cfg = { Tree.default_config with key_inline = 32 } in
  let variants =
    [
      ("ART(SC)", `Pdlart 1);
      ("+Per-NUMA pool", `Pdlart 0);
      ( "+Slotted leaf",
        `Pactree { base_cfg with Tree.async_smo = false; selective_persistence = false } );
      ( "+Selective persistence",
        `Pactree { base_cfg with Tree.async_smo = false; selective_persistence = true } );
      ("+Async SL update", `Pactree base_cfg);
      ("DRAM search layer", `Pactree { base_cfg with Tree.search_layer_dram = true });
    ]
  in
  printf "%-24s" "variant";
  List.iter (fun m -> printf " %8s" (Format.asprintf "%a" Ycsb.pp_mix m)) Ycsb.all_mixes;
  printf "@.";
  List.iter
    (fun (label, variant) ->
      printf "%-24s" label;
      List.iter
        (fun mix ->
          let machine = Machine.create ~numa_count:2 () in
          let index, service =
            match variant with
            | `Pdlart numa_pools ->
                let numa_pools = if numa_pools = 0 then None else Some numa_pools in
                let t = Baselines.Pdlart.create machine ?numa_pools () in
                (Baselines.Index_intf.Index ((module Baselines.Pdlart.Index), t), None)
            | `Pactree cfg ->
                let t = Tree.create machine ~cfg () in
                (Baselines.Pactree_index.wrap t, Some (Factory.pactree_service t))
          in
          let r =
            Runner.run ~machine ~index ?service ~mix ~kind:Keyset.String_keys
              ~loaded:scale.Scale.keys ~ops:scale.Scale.ops ~threads:28 ()
          in
          printf " %8.2f" (Runner.mops r))
        Ycsb.all_mixes;
      printf "@.")
    variants

(* ---- Figure 13: tail latency ---- *)

let fig13 scale =
  header "Figure 13: tail latency, int keys, uniform, 56 threads (usec)";
  List.iter
    (fun mix ->
      printf "@.-- %a --@." Ycsb.pp_mix mix;
      printf "%10s %10s %10s %10s %10s@." "index" "p90" "p99" "p99.9" "p99.99";
      List.iter
        (fun sys ->
          let r = run_one ~threads:56 ~theta:0.0 ~scale ~mix sys in
          let p q = Workload.Latency.percentile r.Runner.latency q *. 1e6 in
          printf "%10s %10.1f %10.1f %10.1f %10.1f@." (Factory.name sys) (p 90.0)
            (p 99.0) (p 99.9) (p 99.99))
        Factory.all)
    [ Ycsb.Workload_a; Ycsb.Workload_b; Ycsb.Workload_c; Ycsb.Workload_e ]

(* ---- Figure 14: single-threaded throughput ---- *)

let fig14 scale =
  header "Figure 14: single-threaded throughput (Mops/s)";
  List.iter
    (fun string_keys ->
      printf "@.-- %s keys --@." (if string_keys then "string" else "int");
      let systems =
        List.filter (fun s -> (not string_keys) || Factory.supports_strings s) Factory.all
      in
      printf "%8s" "mix";
      List.iter (fun s -> printf " %10s" (Factory.name s)) systems;
      printf "@.";
      List.iter
        (fun mix ->
          printf "%8s" (Format.asprintf "%a" Ycsb.pp_mix mix);
          List.iter
            (fun sys ->
              let r = run_one ~string_keys ~threads:1 ~scale ~mix sys in
              printf " %10.2f" (Runner.mops r))
            systems;
          printf "@.")
        Ycsb.all_mixes)
    [ false; true ]

(* ---- Figure 15: Zipfian-coefficient sweep ---- *)

let fig15 scale =
  header "Figure 15: PACTree vs Zipfian coefficient (int keys, Mops/s)";
  let thetas = [ 0.5; 0.6; 0.7; 0.8; 0.9; 0.99 ] in
  List.iter
    (fun (label, mix) ->
      printf "@.-- %s --@." label;
      printf "%8s %12s %12s@." "theta" "28 thr" "56 thr";
      List.iter
        (fun theta ->
          let m threads =
            Runner.mops (run_one ~threads ~theta ~scale ~mix Factory.Pactree_sys)
          in
          printf "%8.2f %12.2f %12.2f@." theta (m 28) (m 56))
        thetas)
    [
      ("50% lookup + 50% update", Ycsb.Skew_update);
      ("50% lookup + 50% insert", Ycsb.Skew_insert);
    ]

(* ---- §3.5: ADR vs eADR mode (discussion section) ---- *)

let eadr scale =
  header "3.5: ADR vs eADR (persistent caches), int keys, 28 threads (Mops/s)";
  printf "%8s" "mix";
  List.iter (fun s -> printf " %16s" (Factory.name s)) [ Factory.Pactree_sys; Factory.Fastfair_sys ];
  printf "@.";
  List.iter
    (fun mix ->
      printf "%8s" (Format.asprintf "%a" Ycsb.pp_mix mix);
      List.iter
        (fun sys ->
          let adr = Runner.mops (run_one ~scale ~mix sys) in
          let e = Runner.mops (run_one ~profile:Config.dcpmm_eadr ~scale ~mix sys) in
          printf " %7.2f/%7.2f" adr e)
        [ Factory.Pactree_sys; Factory.Fastfair_sys ];
      printf "@.")
    [ Ycsb.Load_a; Ycsb.Workload_a; Ycsb.Workload_c ];
  printf "(each cell: ADR / eADR — persistence cost off the critical path,@.";
  printf " bandwidth still binding, per the paper's 3.5 expectation)@."

(* ---- §3.1.1: the FH5 bandwidth-meltdown measurement ---- *)

let fh5 scale =
  header "FH5 (3.1.1): 100% remote random reads, directory coherence traffic";
  let run protocol =
    let machine = Machine.create ~protocol ~numa_count:2 () in
    let pool =
      Nvm.Pool.create machine ~name:"fh5" ~numa:0
        ~capacity:(max (1 lsl 22) (scale.Scale.keys * 16))
        ()
    in
    let lines = Nvm.Pool.capacity pool / 64 in
    let sched = Des.Sched.create () in
    (* bandwidth-over-time series: this is the plot where the
       directory protocol's read bandwidth melts down *)
    let sampler = Obs.Sampler.create ~machine ~interval:20e-6 () in
    Obs.Sampler.spawn sampler sched;
    let live = ref 20 in
    for i = 0 to 19 do
      Des.Sched.spawn sched ~numa:1 ~name:(Printf.sprintf "r%d" i) (fun () ->
          let rng = Des.Rng.create ~seed:(Int64.of_int (i + 1)) in
          for _ = 1 to scale.Scale.ops / 20 do
            ignore (Nvm.Pool.read_int pool (Des.Rng.int rng lines * 64))
          done;
          decr live;
          if !live = 0 then Obs.Sampler.stop sampler)
    done;
    Des.Sched.run sched;
    let stats = Nvm.Device.stats (Machine.device machine 0) in
    (gb (Stats.total_read_bytes stats), gb (Stats.total_write_bytes stats), sampler)
  in
  let dr, dw, dsampler = run Config.Directory in
  let sr, sw, ssampler = run Config.Snoop in
  printf "%-10s %12s %12s@." "protocol" "read (GB)" "write (GB)";
  printf "%-10s %12.3f %12.3f@." "directory" dr dw;
  printf "%-10s %12.3f %12.3f@." "snoop" sr sw;
  let dir_csv = "fh5_bandwidth_directory.csv" in
  let snoop_csv = "fh5_bandwidth_snoop.csv" in
  Obs.Sampler.write_csv dsampler dir_csv;
  Obs.Sampler.write_csv ssampler snoop_csv;
  printf "bandwidth-over-time series written to %s and %s@." dir_csv snoop_csv

(* ---- §6.7: jump-node distance distribution ---- *)

let sec6_7 scale =
  header "6.7: distance from jump node to target node (YCSB-A, 112 threads)";
  let machine = Machine.create ~numa_count:2 () in
  let t = Tree.create machine () in
  let index = Baselines.Pactree_index.wrap t in
  ignore
    (Runner.run ~machine ~index ~service:(Factory.pactree_service t)
       ~mix:Ycsb.Workload_a ~kind:Keyset.Int_keys ~loaded:scale.Scale.keys
       ~ops:scale.Scale.ops ~threads:112 ());
  let hist = Tree.jump_histogram t in
  let total = Array.fold_left ( + ) 0 hist in
  printf "%8s %12s@." "hops" "fraction";
  Array.iteri
    (fun hops count ->
      if count > 0 then
        printf "%8s %11.2f%%@."
          (if hops = Array.length hist - 1 then Printf.sprintf "%d+" hops
           else string_of_int hops)
          (100.0 *. float_of_int count /. float_of_int (max 1 total)))
    hist

(* ---- §6.8: crash-injection recovery test ---- *)

let sec6_8 ?(rounds = 100) _scale =
  header (Printf.sprintf "6.8: recovery under %d injected crashes" rounds);
  let machine = Machine.create ~numa_count:2 () in
  let t = Tree.create machine () in
  let seed = Des.Rng.env_seed ~default:0xC4A5FL in
  let rng = Des.Rng.create ~seed in
  let acked : (int, int) Hashtbl.t = Hashtbl.create 4096 in
  let failures = ref 0 in
  for round = 1 to rounds do
    let sched = Des.Sched.create () in
    Des.Sched.spawn sched ~name:"updater" (fun () -> Tree.updater_loop t);
    for i = 0 to 3 do
      Des.Sched.spawn sched ~numa:(i mod 2) ~name:(Printf.sprintf "w%d" i) (fun () ->
          let rng = Des.Rng.create ~seed:(Int64.of_int ((round * 64) + i)) in
          for _ = 1 to 200 do
            let k = Des.Rng.int rng 50_000 in
            let v = (round * 1_000_000) + k in
            Tree.insert t (Key.of_int k) v;
            Hashtbl.replace acked k v
          done;
          Tree.request_shutdown t)
    done;
    (* SIGKILL at a random instant *)
    Des.Sched.spawn sched ~name:"crasher" (fun () ->
        Des.Sched.delay (1e-5 +. (Des.Rng.float rng *. 2e-4));
        Des.Sched.abort_all sched;
        let mode =
          if Des.Rng.bool rng then Machine.Strict
          else Machine.Flaky (Des.Rng.float rng, Des.Rng.split rng)
        in
        Machine.crash machine mode);
    Des.Sched.run sched;
    (* run recovery on the simulated clock so its cost is measured
       (and phase-attributed when an observer is installed) *)
    let rsched = Des.Sched.create () in
    Des.Sched.spawn rsched ~name:"recovery" (fun () -> ignore (Tree.recover t));
    Des.Sched.run rsched;
    (try ignore (Tree.check_invariants t)
     with Failure msg ->
       incr failures;
       printf "round %d: INVARIANT FAILURE: %s@." round msg);
    Hashtbl.iter
      (fun k v ->
        match Tree.lookup t (Key.of_int k) with
        | Some v' when v' = v || v' > v -> () (* a later round's value may be newer *)
        | _ ->
            incr failures;
            printf "round %d: key %d lost@." round k)
      acked;
    Tree.reset_shutdown t
  done;
  printf "%d/%d crash rounds recovered correctly, %d failures@." (rounds - !failures)
    rounds !failures;
  if !failures > 0 then
    printf "seed %Ld (override with PACTREE_SEED to replay)@." seed

let registry =
  [
    ("fig2", fig2);
    ("fig3", fig3);
    ("fig4", fig4);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig9", fig9);
    ("fig10", fig10);
    ("fig11", fig11);
    ("fig12", fig12);
    ("fig13", fig13);
    ("fig14", fig14);
    ("fig15", fig15);
    ("eadr", eadr);
    ("fh5", fh5);
    ("sec6_7", sec6_7);
    ("sec6_8", fun scale -> sec6_8 scale);
  ]
