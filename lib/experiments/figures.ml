(* One generator per table/figure of the paper's evaluation (see
   DESIGN.md §3 for the experiment index).  Each returns the rows the
   paper plots as tables; EXPERIMENTS.md records paper-vs-measured
   shapes. *)

module Machine = Nvm.Machine
module Config = Nvm.Config
module Stats = Nvm.Stats
module Runner = Workload.Runner
module Ycsb = Workload.Ycsb
module Keyset = Workload.Keyset
module Tree = Pactree.Tree
module Key = Pactree.Key
module Json = Obs.Json

type table = {
  title : string;
  label : string;
  columns : (string * int) list;
  rows : (string * float list) list;
}

let table title ~label columns rows =
  List.iter
    (fun (name, values) ->
      if List.compare_lengths values columns <> 0 then
        invalid_arg
          (Printf.sprintf "Figures.table %S: row %S has %d values for %d columns" title
             name (List.length values) (List.length columns)))
    rows;
  { title; label; columns; rows }

(* The label column left-aligned, every value column right-aligned at
   its own precision, columns two spaces apart. *)
let pp_table ppf t =
  let header = t.label :: List.map fst t.columns in
  let cells =
    List.map
      (fun (label, values) ->
        label
        :: List.map2 (fun (_, digits) v -> Printf.sprintf "%.*f" digits v) t.columns values)
      t.rows
  in
  let widths =
    List.fold_left
      (List.map2 (fun w s -> max w (String.length s)))
      (List.map (fun _ -> 0) header)
      (header :: cells)
  in
  let line row =
    String.concat "  "
      (List.mapi
         (fun i (w, s) ->
           if i = 0 then Printf.sprintf "%-*s" w s else Printf.sprintf "%*s" w s)
         (List.combine widths row))
  in
  Format.fprintf ppf "@.=== %s ===@." t.title;
  List.iter (fun row -> Format.fprintf ppf "%s@." (line row)) (header :: cells)

let table_json t =
  let row (label, values) =
    Json.Obj
      ((t.label, Json.String label)
      :: List.map2 (fun (name, _) v -> (name, Json.Float v)) t.columns values)
  in
  Json.Obj [ ("title", Json.String t.title); ("rows", Json.List (List.map row t.rows)) ]

let to_json figures =
  Json.Obj
    (List.map
       (fun (name, tables) -> (name, Json.List (List.map table_json tables)))
       figures)

let gb bytes = float_of_int bytes /. 1e9

let mix_name mix = Format.asprintf "%a" Ycsb.pp_mix mix

let keys_name string_keys = if string_keys then "string" else "int"

let run_one ?(protocol = Config.Snoop) ?(profile = Config.dcpmm) ?(string_keys = false)
    ?cfg ?(theta = 0.99) ?(threads = 28) ~scale ~mix sys =
  let machine = Machine.create ~profile ~protocol ~numa_count:2 () in
  let b = Factory.make_backend machine ~string_keys ?cfg sys in
  let kind = if string_keys then Keyset.String_keys else Keyset.Int_keys in
  Runner.run ~machine ~index:b.b_index ?service:b.b_service ~mix ~kind
    ~loaded:scale.Scale.keys ~ops:scale.Scale.ops ~threads ~theta ()

(* One Mops/s column per system, one row per [xs] element. *)
let mops_grid title ~label xs ~row_name systems cell =
  table title ~label
    (List.map (fun s -> (Factory.name s, 2)) systems)
    (List.map
       (fun x -> (row_name x, List.map (fun s -> Runner.mops (cell x s)) systems))
       xs)

let string_systems = List.filter Factory.supports_strings Factory.all

(* ---- Figure 2: FastFair under snoop vs directory coherence ---- *)

let fig2 scale =
  let mops protocol threads =
    Runner.mops
      (run_one ~protocol ~threads ~scale ~mix:Ycsb.Workload_a Factory.Fastfair_sys)
  in
  [
    table "Figure 2: FastFair YCSB-A (int keys), snoop vs directory coherence"
      ~label:"threads"
      [ ("snoop Mops", 2); ("directory Mops", 2) ]
      (List.map
         (fun threads ->
           ( string_of_int threads,
             [ mops Config.Snoop threads; mops Config.Directory threads ] ))
         scale.Scale.thread_counts);
  ]

(* ---- Figure 3: PDL-ART insert-only, PMDK vs volatile allocator ---- *)

let fig3 scale =
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
  [
    table "Figure 3: PDL-ART insert-only (int keys), allocator comparison"
      ~label:"allocator"
      [ ("Mops", 2); ("x slower", 1) ]
      [
        ("Jemalloc (volatile)", [ jemalloc; 1.0 ]);
        ("PMDK (crash-consistent)", [ pmdk; jemalloc /. pmdk ]);
      ];
  ]

(* ---- Figure 4: lookup throughput and NVM reads, FastFair vs PDL-ART ---- *)

let fig4 scale =
  [
    table "Figure 4: 100% lookups (YCSB-C): throughput and NVM reads" ~label:"index (keys)"
      [ ("Mops", 2); ("NVM read (GB)", 3) ]
      (List.map
         (fun (sys, string_keys) ->
           let r = run_one ~string_keys ~scale ~mix:Ycsb.Workload_c sys in
           ( Printf.sprintf "%s (%s)" (Factory.name sys) (keys_name string_keys),
             [ Runner.mops r; gb (Stats.total_read_bytes r.Runner.nvm) ] ))
         [
           (Factory.Fastfair_sys, false);
           (Factory.Pdlart_sys, false);
           (Factory.Fastfair_sys, true);
           (Factory.Pdlart_sys, true);
         ]);
  ]

(* ---- Figure 5: scan throughput and NVM reads ---- *)

let fig5 scale =
  [
    table "Figure 5: scan operations (int keys): throughput and NVM reads" ~label:"index"
      [ ("Mops", 2); ("NVM read (GB)", 3) ]
      (List.map
         (fun sys ->
           let r = run_one ~scale ~mix:Ycsb.Workload_e sys in
           (Factory.name sys, [ Runner.mops r; gb (Stats.total_read_bytes r.Runner.nvm) ]))
         [ Factory.Fastfair_sys; Factory.Pdlart_sys ]);
  ]

(* ---- Figure 6: FPTree HTM aborts vs data size and threads ---- *)

let fig6 scale =
  let run keys threads =
    let machine = Machine.create ~numa_count:2 () in
    let t = Baselines.Fptree.create machine () in
    let index = Baselines.Index_intf.Index ((module Baselines.Fptree.Index), t) in
    let r =
      Runner.run ~machine ~index ~mix:Ycsb.Skew_insert ~kind:Keyset.Int_keys
        ~loaded:keys ~ops:scale.Scale.ops ~threads ()
    in
    let h = Baselines.Fptree.htm_stats t in
    [
      Runner.mops r;
      float_of_int h.Baselines.Htm.aborts /. float_of_int (max 1 r.Runner.ops);
    ]
  in
  [
    table "Figure 6: FPTree HTM aborts (50% lookup / 50% insert)" ~label:"threads"
      [ ("small Mops", 2); ("small ab/op", 2); ("big Mops", 2); ("big ab/op", 2) ]
      (List.map
         (fun threads ->
           ( string_of_int threads,
             run (scale.Scale.keys / 4) threads @ run (scale.Scale.keys * 2) threads ))
         scale.Scale.thread_counts);
  ]

(* ---- Figures 9/10: YCSB sweeps over all indexes ---- *)

let ycsb_sweep ~figure ~string_keys scale =
  List.map
    (fun mix ->
      mops_grid
        (Printf.sprintf "%s: YCSB %s, %s keys, Zipfian (Mops/s)" figure (mix_name mix)
           (keys_name string_keys))
        ~label:"threads" scale.Scale.thread_counts ~row_name:string_of_int
        (if string_keys then string_systems else Factory.all)
        (fun threads sys -> run_one ~string_keys ~threads ~scale ~mix sys))
    Ycsb.all_mixes

let fig9 = ycsb_sweep ~figure:"Figure 9" ~string_keys:true

let fig10 = ycsb_sweep ~figure:"Figure 10" ~string_keys:false

(* ---- Figure 11: low-bandwidth NVM machine ---- *)

let fig11 scale =
  [
    mops_grid "Figure 11: low-bandwidth NVM machine, 32 threads, uniform (Mops/s)"
      ~label:"mix" Ycsb.all_mixes ~row_name:mix_name Factory.all (fun mix sys ->
        run_one ~profile:Config.dcpmm_low_bw ~threads:32 ~theta:0.0 ~scale ~mix sys);
  ]

(* ---- Figure 12: factor analysis ---- *)

let fig12 scale =
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
  let run variant mix =
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
    Runner.mops
      (Runner.run ~machine ~index ?service ~mix ~kind:Keyset.String_keys
         ~loaded:scale.Scale.keys ~ops:scale.Scale.ops ~threads:28 ())
  in
  [
    table "Figure 12: factor analysis (string keys, 28 threads, Mops/s)" ~label:"variant"
      (List.map (fun mix -> (mix_name mix, 2)) Ycsb.all_mixes)
      (List.map
         (fun (label, variant) -> (label, List.map (run variant) Ycsb.all_mixes))
         variants);
  ]

(* ---- Figure 13: tail latency ---- *)

let fig13 scale =
  let quantiles = [ 90.0; 99.0; 99.9; 99.99 ] in
  List.map
    (fun mix ->
      table
        (Printf.sprintf "Figure 13: tail latency, %s, int keys, uniform, 56 threads (usec)"
           (mix_name mix))
        ~label:"index"
        (List.map (fun q -> (Printf.sprintf "p%g" q, 1)) quantiles)
        (List.map
           (fun sys ->
             let r = run_one ~threads:56 ~theta:0.0 ~scale ~mix sys in
             ( Factory.name sys,
               List.map
                 (fun q -> Workload.Latency.percentile r.Runner.latency q *. 1e6)
                 quantiles ))
           Factory.all))
    [ Ycsb.Workload_a; Ycsb.Workload_b; Ycsb.Workload_c; Ycsb.Workload_e ]

(* ---- Figure 14: single-threaded throughput ---- *)

let fig14 scale =
  List.map
    (fun string_keys ->
      mops_grid
        (Printf.sprintf "Figure 14: single-threaded throughput, %s keys (Mops/s)"
           (keys_name string_keys))
        ~label:"mix" Ycsb.all_mixes ~row_name:mix_name
        (if string_keys then string_systems else Factory.all)
        (fun mix sys -> run_one ~string_keys ~threads:1 ~scale ~mix sys))
    [ false; true ]

(* ---- Figure 15: Zipfian-coefficient sweep ---- *)

let fig15 scale =
  let thread_counts = [ 28; 56 ] in
  List.map
    (fun (label, mix) ->
      table
        (Printf.sprintf "Figure 15: PACTree vs Zipfian coefficient, %s (int keys, Mops/s)"
           label)
        ~label:"theta"
        (List.map (fun threads -> (Printf.sprintf "%d thr" threads, 2)) thread_counts)
        (List.map
           (fun theta ->
             ( Printf.sprintf "%.2f" theta,
               List.map
                 (fun threads ->
                   Runner.mops (run_one ~threads ~theta ~scale ~mix Factory.Pactree_sys))
                 thread_counts ))
           [ 0.5; 0.6; 0.7; 0.8; 0.9; 0.99 ]))
    [
      ("50% lookup + 50% update", Ycsb.Skew_update);
      ("50% lookup + 50% insert", Ycsb.Skew_insert);
    ]

(* ---- §3.5: ADR vs eADR mode (discussion section) ---- *)

let eadr scale =
  let systems = [ Factory.Pactree_sys; Factory.Fastfair_sys ] in
  let profiles = [ ("ADR", Config.dcpmm); ("eADR", Config.dcpmm_eadr) ] in
  [
    table "3.5: ADR vs eADR (persistent caches), int keys, 28 threads (Mops/s)" ~label:"mix"
      (List.concat_map
         (fun sys -> List.map (fun (p, _) -> (Factory.name sys ^ " " ^ p, 2)) profiles)
         systems)
      (List.map
         (fun mix ->
           ( mix_name mix,
             List.concat_map
               (fun sys ->
                 List.map
                   (fun (_, profile) -> Runner.mops (run_one ~profile ~scale ~mix sys))
                   profiles)
               systems ))
         [ Ycsb.Load_a; Ycsb.Workload_a; Ycsb.Workload_c ]);
  ]

(* ---- §3.1.1: the FH5 bandwidth-meltdown measurement ---- *)

let fh5 scale =
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
  let protocols = [ ("directory", run Config.Directory); ("snoop", run Config.Snoop) ] in
  table "FH5 (3.1.1): 100% remote random reads, directory coherence traffic"
    ~label:"protocol"
    [ ("read (GB)", 3); ("write (GB)", 3) ]
    (List.map (fun (name, (r, w, _)) -> (name, [ r; w ])) protocols)
  :: List.map
       (fun (name, (_, _, sampler)) ->
         table
           (Printf.sprintf "FH5: %s bandwidth over time (20us windows)" name)
           ~label:"t (us)"
           [
             ("read MB/s", 1);
             ("write MB/s", 1);
             ("dir write MB/s", 1);
             ("flushes/s", 0);
             ("fences/s", 0);
           ]
           (List.map
              (fun (r : Obs.Sampler.rate) ->
                ( Printf.sprintf "%.0f" r.t_us,
                  [
                    r.read_mbps;
                    r.write_mbps;
                    r.dir_write_mbps;
                    r.flushes_per_s;
                    r.fences_per_s;
                  ] ))
              (Obs.Sampler.rates sampler)))
       protocols

(* ---- §6.7: jump-node distance distribution ---- *)

let sec6_7 scale =
  let machine = Machine.create ~numa_count:2 () in
  let t = Tree.create machine () in
  let index = Baselines.Pactree_index.wrap t in
  ignore
    (Runner.run ~machine ~index ~service:(Factory.pactree_service t)
       ~mix:Ycsb.Workload_a ~kind:Keyset.Int_keys ~loaded:scale.Scale.keys
       ~ops:scale.Scale.ops ~threads:112 ());
  let hist = Tree.jump_histogram t in
  let total = Array.fold_left ( + ) 0 hist in
  let last = Array.length hist - 1 in
  [
    table "6.7: distance from jump node to target node (YCSB-A, 112 threads)" ~label:"hops"
      [ ("fraction %", 2) ]
      (List.filter_map
         (fun hops ->
           if hist.(hops) = 0 then None
           else
             Some
               ( (if hops = last then Printf.sprintf "%d+" hops else string_of_int hops),
                 [ 100.0 *. float_of_int hist.(hops) /. float_of_int (max 1 total) ] ))
         (List.init (last + 1) Fun.id));
  ]

(* ---- §6.8: crash-injection recovery test ---- *)

let sec6_8 ?(rounds = 100) _scale =
  let machine = Machine.create ~numa_count:2 () in
  let t = Tree.create machine () in
  let seed = Des.Rng.env_seed ~default:0xC4A5FL in
  let rng = Des.Rng.create ~seed in
  let acked : (int, int) Hashtbl.t = Hashtbl.create 4096 in
  let failures = ref [] in
  let fail round what = failures := Printf.sprintf "round %d: %s" round what :: !failures in
  (* Each round starts where the last recovery ended.  The machine's
     devices keep their busy-until times across schedulers, so a round
     whose clock restarted at 0 waited out the recovery's media traffic
     (~4 ms) and was crashed before any insert completed. *)
  let clock = ref 0.0 in
  for round = 1 to rounds do
    let sched = Des.Sched.create ~start:!clock () in
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
    let rsched = Des.Sched.create ~start:(Des.Sched.now sched) () in
    Des.Sched.spawn rsched ~name:"recovery" (fun () -> ignore (Tree.recover t));
    Des.Sched.run rsched;
    clock := Des.Sched.now rsched;
    (try ignore (Tree.check_invariants t)
     with Failure msg -> fail round ("invariant failure: " ^ msg));
    Hashtbl.iter
      (fun k v ->
        match Tree.lookup t (Key.of_int k) with
        | Some v' when v' = v || v' > v -> () (* a later round's value may be newer *)
        | _ -> fail round (Printf.sprintf "key %d lost" k))
      acked
  done;
  let failed = List.length !failures in
  if failed > 0 then
    failwith
      (Printf.sprintf
         "6.8: %d failures in %d crash rounds, first: %s; seed %Ld (override with \
          PACTREE_SEED to replay)"
         failed rounds
         (List.hd (List.rev !failures))
         seed);
  [
    table
      (Printf.sprintf "6.8: recovery under %d injected crashes" rounds)
      ~label:"rounds"
      [ ("recovered", 0); ("failures", 0) ]
      [ (string_of_int rounds, [ float_of_int (rounds - failed); float_of_int failed ]) ];
  ]

(* ---- The canonical instrumented bench ---- *)

(* YCSB W-A, int keys, theta 0.99, 8 threads, with a span recorder and
   the persist-order sanitizer on the whole run; a store left
   unflushed at its thread's ordering point raises. *)
let stats scale =
  let run sys =
    let machine = Machine.create ~numa_count:2 () in
    let b = Factory.make_backend machine sys in
    let obs = Obs.Recorder.create machine () in
    Pobj.Sanitizer.enable machine;
    let r =
      Runner.run ~machine ~index:b.b_index ?service:b.b_service ~obs ~mix:Ycsb.Workload_a
        ~kind:Keyset.Int_keys ~loaded:scale.Scale.keys ~ops:scale.Scale.ops ~threads:8
        ~theta:0.99 ()
    in
    let hazards = Pobj.Sanitizer.total () in
    if hazards > 0 then
      failwith
        (Format.asprintf "stats: %d persist-order hazard(s) in %s:@\n%a" hazards
           (Factory.name sys)
           (Format.pp_print_list Pobj.Sanitizer.pp_report)
           (Pobj.Sanitizer.reports ()));
    Pobj.Sanitizer.disable machine;
    (Factory.name sys, r, obs.Obs.Recorder.span, hazards)
  in
  let runs =
    List.map run [ Factory.Pactree_sys; Factory.Pdlart_sys; Factory.Fastfair_sys ]
  in
  let per_system what columns cells =
    table
      (Printf.sprintf
         "stats: YCSB W-A, int keys, theta 0.99, 8 threads, %d keys, %d ops: %s"
         scale.Scale.keys scale.Scale.ops what)
      ~label:"index" columns
      (List.map (fun (name, r, span, hazards) -> (name, cells r span hazards)) runs)
  in
  let phases = List.map (fun p -> (Obs.Span.phase_name p, 1)) Obs.Span.all_phases in
  [
    per_system "throughput and latency"
      [
        ("Mops", 3);
        ("elapsed (s)", 6);
        ("p50 us", 1);
        ("p99 us", 1);
        ("p99.99 us", 1);
        ("mean us", 1);
        ("max us", 1);
      ]
      (fun r _ _ ->
        let us q = Workload.Latency.percentile r.Runner.latency q *. 1e6 in
        [
          Runner.mops r;
          r.Runner.elapsed;
          us 50.0;
          us 99.0;
          us 99.99;
          Workload.Latency.mean r.Runner.latency *. 1e6;
          Workload.Latency.max r.Runner.latency *. 1e6;
        ]);
    per_system "phase time (% of attributed)" phases (fun _ span _ ->
        List.map snd (Obs.Span.percentages span));
    per_system "phase time (us)" phases (fun _ span _ ->
        List.map (fun row -> row.Obs.Span.r_seconds *. 1e6) (Obs.Span.rows span));
    per_system "persistence per op"
      [
        ("flushes", 2);
        ("redundant", 2);
        ("fences", 2);
        ("media read B", 0);
        ("media write B", 0);
        ("read amp", 2);
        ("write amp", 2);
        ("sanitizer hazards", 0);
      ]
      (fun r _ hazards ->
        let nvm = r.Runner.nvm in
        let per_op x = float_of_int x /. float_of_int (max 1 r.Runner.ops) in
        [
          per_op nvm.Stats.flushes;
          per_op nvm.Stats.flushes_elided;
          per_op nvm.Stats.fences;
          per_op (Stats.total_read_bytes nvm);
          per_op (Stats.total_write_bytes nvm);
          Stats.read_amplification nvm;
          Stats.write_amplification nvm;
          float_of_int hazards;
        ]);
  ]

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
    ("stats", stats);
  ]
