(* Mini YCSB comparison: PACTree vs FastFair vs PDL-ART on workloads
   A and C, at 1 and 28 simulated threads — a taste of the full
   benchmark suite (bench/main.exe).

     dune exec examples/ycsb_demo.exe *)

let scale_keys = 20_000

let run sys mix threads =
  let machine = Nvm.Machine.create ~numa_count:2 () in
  let scale =
    Experiments.Scale.make ~keys:scale_keys ~ops:scale_keys ~thread_counts:[]
  in
  let b = Experiments.Factory.make_backend machine ~scale sys in
  Workload.Runner.run ~machine ~index:b.b_index ?service:b.b_service ~mix
    ~kind:Workload.Keyset.Int_keys ~loaded:scale_keys ~ops:scale_keys ~threads ()

let () =
  let systems =
    [ Experiments.Factory.Pactree_sys; Experiments.Factory.Fastfair_sys;
      Experiments.Factory.Pdlart_sys ]
  in
  Printf.printf "YCSB demo: %d keys, %d ops, Zipfian 0.99 (simulated Mops/s)\n\n"
    scale_keys scale_keys;
  List.iter
    (fun mix ->
      Format.printf "-- %a --@." Workload.Ycsb.pp_mix mix;
      Format.printf "%10s %12s %12s@." "index" "1 thread" "28 threads";
      List.iter
        (fun sys ->
          let one = Workload.Runner.mops (run sys mix 1) in
          let many = Workload.Runner.mops (run sys mix 28) in
          Format.printf "%10s %12.2f %12.2f@." (Experiments.Factory.name sys) one many)
        systems;
      Format.printf "@.")
    [ Workload.Ycsb.Workload_c; Workload.Ycsb.Workload_a ]
