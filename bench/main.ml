(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation (see DESIGN.md section 3 for the index).

   Usage:
     dune exec bench/main.exe                 # all figures, quick scale
     dune exec bench/main.exe -- --full       # paper-like scale (slow)
     dune exec bench/main.exe -- fig9 fig13   # a subset
     dune exec bench/main.exe -- micro        # bechamel micro-benchmarks

   Any other argument prints the valid names and exits 2.  The
   crash-state sweep is `pactree_bench crashmc`.

   Throughputs are simulated Mops/s on the modelled DCPMM machine;
   shapes (ordering, ratios, crossovers), not absolute numbers, are
   the comparison target against the paper. *)

(* Simulated context switches per call of a [des_switches] test. *)
let switches = 17_000

(* [threads] simulated threads that delay [switches] times in all, by
   pseudo-random pauses so that the event queue reorders them: the
   host cost of a scheduler switch (effect, requeue, resume). *)
let des_switches threads =
  Bechamel.Staged.stage (fun () ->
      let sched = Des.Sched.create () in
      for i = 1 to threads do
        Des.Sched.spawn sched ~name:"switch" (fun () ->
            let x = ref i in
            for _ = 1 to switches / threads do
              x := ((!x * 1103515245) + 12345) land 0x3FF;
              Des.Sched.delay (float_of_int !x *. 1e-9)
            done)
      done;
      Des.Sched.run sched)

(* Store to one line, clwb it and fence, outside a simulation: the host
   cost of the flush tracking and of a one-group fence. *)
let clwb_fence () =
  let machine = Nvm.Machine.create ~numa_count:1 () in
  let pool = Nvm.Pool.create machine ~name:"micro" ~numa:0 ~capacity:(1 lsl 16) () in
  let counter = ref 0 in
  Bechamel.Staged.stage (fun () ->
      incr counter;
      Nvm.Pool.write_int pool 64 !counter;
      Nvm.Pool.clwb pool 64;
      Nvm.Pool.fence pool)

(* One fingerprint probe of a full 64-slot int-key node, outside a
   simulation, for [key]: the node's lines 0-1 are copied once, as a
   visit copies them, and each call matches the fingerprints and reads
   the candidate entries. *)
let dnode_probe key =
  let machine = Nvm.Machine.create ~numa_count:1 () in
  let pool = Nvm.Pool.create machine ~name:"micro" ~numa:0 ~capacity:(1 lsl 16) () in
  let lay = Pactree.Data_node.layout ~key_inline:8 () in
  let node = { Pactree.Data_node.pool; off = 0 } in
  Pactree.Data_node.init lay node ~gen:1 ~anchor:"" ~next:Pmalloc.Pptr.null
    ~prev:Pmalloc.Pptr.null;
  for i = 0 to Pactree.Data_node.entries - 1 do
    ignore (Pactree.Data_node.insert lay node (Pactree.Key.of_int i) i)
  done;
  ignore (Pactree.Data_node.begin_read pool 0 ~gen:1 : int);
  let k = Pactree.Key.of_int key in
  Bechamel.Staged.stage (fun () -> ignore (Pactree.Data_node.probe lay pool 0 k : int))

(* The host cost of one simulated lookup on a 4K-key index. *)
let lookup sys =
  let machine = Nvm.Machine.create ~numa_count:2 () in
  let scale = Experiments.Scale.tiny in
  let index = (Experiments.Factory.make_backend machine ~scale sys).b_index in
  for i = 0 to 4_095 do
    Baselines.Index_intf.insert index (Pactree.Key.of_int i) i
  done;
  let counter = ref 0 in
  Bechamel.Staged.stage (fun () ->
      counter := (!counter + 7919) land 0xFFF;
      ignore (Baselines.Index_intf.lookup index (Pactree.Key.of_int !counter)))

let microbench () =
  (* Bechamel micro-benchmarks of the simulator's host cost, single
     host thread.  Each group is [(title, unit, units per call,
     test)]: an estimate per call is printed per unit. *)
  let open Bechamel in
  let groups =
    [
      ( "host-side cost per simulated lookup",
        "op",
        1,
        Test.make_grouped ~name:"lookup-4k"
          (List.map
             (fun sys -> Test.make ~name:(Experiments.Factory.name sys) (lookup sys))
             Experiments.Factory.all) );
      ( "host-side cost per scheduler switch",
        "switch",
        switches,
        Test.make_grouped ~name:"des-switch"
          [
            Test.make ~name:"1 thread" (des_switches 1);
            Test.make ~name:"17 threads" (des_switches 17);
          ] );
      ( "host-side cost per fingerprint probe of a full data node",
        "probe",
        1,
        Test.make_grouped ~name:"dnode-probe"
          [
            Test.make ~name:"hit" (dnode_probe (Pactree.Data_node.entries / 2));
            Test.make ~name:"miss" (dnode_probe Pactree.Data_node.entries);
          ] );
      ( "host-side cost per store + clwb + fence of one line",
        "line",
        1,
        Test.make ~name:"clwb+fence" (clwb_fence ()) );
    ]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  List.iter
    (fun (title, unit, per_call, test) ->
      Format.printf "@.=== micro: %s ===@." title;
      let results =
        Analyze.all ols Toolkit.Instance.monotonic_clock (Benchmark.all cfg instances test)
      in
      let rows =
        List.sort
          (fun (a, _) (b, _) -> String.compare a b)
          (Hashtbl.fold (fun name r acc -> (name, r) :: acc) results [])
      in
      List.iter
        (fun (name, r) ->
          match Analyze.OLS.estimates r with
          | Some [ est ] ->
              Format.printf "%-24s %10.0f ns/%s@." name (est /. float_of_int per_call) unit
          | Some _ | None -> Format.printf "%-24s (no estimate)@." name)
        rows)
    groups

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
        List.iter (Format.printf "%a" Experiments.Figures.pp_table) (f scale);
        Format.printf "[%s took %.1fs host time]@." name (Unix.gettimeofday () -. t0)
      end)
    Experiments.Figures.registry;
  if wants "micro" then microbench ()
