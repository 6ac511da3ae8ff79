(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation (see DESIGN.md section 3 for the index).

   Usage:
     dune exec bench/main.exe                 # all figures, quick scale
     dune exec bench/main.exe -- --full       # paper-like scale (slow)
     dune exec bench/main.exe -- fig9 fig13   # a subset
     dune exec bench/main.exe -- micro        # bechamel micro-benchmarks

   Any other argument prints the valid names and exits 2.  The
   crash-state sweep and the instrumented stats bench are
   `pactree_bench crashmc` / `stats`.

   Throughputs are simulated Mops/s on the modelled DCPMM machine;
   shapes (ordering, ratios, crossovers), not absolute numbers, are
   the comparison target against the paper. *)

let microbench () =
  (* Bechamel micro-benchmarks: host-side cost of one simulated
     operation per index (single-threaded, small working set).  One
     Test.make per measured system. *)
  let open Bechamel in
  let scale = Experiments.Scale.tiny in
  let make_op sys =
    let machine = Nvm.Machine.create ~numa_count:2 () in
    let index = (Experiments.Factory.make_backend machine ~scale sys).b_index in
    for i = 0 to 4_095 do
      Baselines.Index_intf.insert index (Pactree.Key.of_int i) i
    done;
    let counter = ref 0 in
    Staged.stage (fun () ->
        counter := (!counter + 7919) land 0xFFF;
        ignore (Baselines.Index_intf.lookup index (Pactree.Key.of_int !counter)))
  in
  let test_of sys = Test.make ~name:(Experiments.Factory.name sys) (make_op sys) in
  let test =
    Test.make_grouped ~name:"lookup-4k" (List.map test_of Experiments.Factory.all)
  in
  let benchmark () =
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
    Benchmark.all cfg instances test
  in
  let analyze results =
    let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
    Analyze.all ols Toolkit.Instance.monotonic_clock results
  in
  Format.printf "@.=== micro: host-side cost per simulated lookup ===@.";
  let results = analyze (benchmark ()) in
  Hashtbl.iter
    (fun name ols ->
      match Bechamel.Analyze.OLS.estimates ols with
      | Some [ est ] -> Format.printf "%-24s %10.0f ns/op@." name est
      | Some _ | None -> Format.printf "%-24s (no estimate)@." name)
    results

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let full = List.mem "--full" args in
  let selected = List.filter (( <> ) "--full") args in
  let names = List.map fst Experiments.Figures.registry @ [ "micro" ] in
  (match List.filter (fun a -> not (List.mem a names)) selected with
  | [] -> ()
  | unknown ->
      Printf.eprintf "unknown argument(s): %s\nusage: main.exe [--full] [%s]...\n"
        (String.concat " " unknown) (String.concat "|" names);
      exit 2);
  let wants name = selected = [] || List.mem name selected in
  let scale = if full then Experiments.Scale.full else Experiments.Scale.quick in
  Format.printf "PACTree benchmark suite (%s scale: %d keys, %d ops)@."
    (if full then "full" else "quick")
    scale.Experiments.Scale.keys scale.Experiments.Scale.ops;
  List.iter
    (fun (name, f) ->
      if wants name then begin
        let t0 = Unix.gettimeofday () in
        f scale;
        Format.printf "[%s took %.1fs host time]@." name (Unix.gettimeofday () -. t0)
      end)
    Experiments.Figures.registry;
  if wants "micro" then microbench ()
