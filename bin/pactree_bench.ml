(* Command-line driver for ad-hoc experiments on the simulated NVM
   machine.

     pactree_bench ycsb --index pactree --mix a --threads 28 ...
     pactree_bench crash --rounds 50 *)

open Cmdliner

let system_ids = String.concat ", " (List.map Experiments.Factory.id Experiments.Factory.all)

let index_arg =
  let index_conv =
    Arg.conv
      ( (fun s ->
          match Experiments.Factory.of_string s with
          | Some sys -> Ok sys
          | None -> Error (`Msg ("unknown index: " ^ s))),
        fun ppf sys -> Format.pp_print_string ppf (Experiments.Factory.name sys) )
  in
  Arg.(
    value
    & opt index_conv Experiments.Factory.Pactree_sys
    & info [ "index" ] ~docv:"INDEX"
        ~doc:("Index to benchmark: " ^ system_ids ^ "."))

let mix_arg =
  let mix_conv =
    Arg.conv
      ( (fun s ->
          match Workload.Ycsb.mix_of_string s with
          | Some m -> Ok m
          | None -> Error (`Msg ("unknown mix: " ^ s))),
        Workload.Ycsb.pp_mix )
  in
  Arg.(
    value
    & opt mix_conv Workload.Ycsb.Workload_a
    & info [ "mix" ] ~docv:"MIX" ~doc:"YCSB mix: la, a, b, c, e, skew-insert.")

let keys_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "keys" ] ~doc:"Pre-loaded key count (default 100000; not with --mix la).")

let ops_arg = Arg.(value & opt int 100_000 & info [ "ops" ] ~doc:"Operations to run.")

let threads_arg =
  Arg.(value & opt int 28 & info [ "threads" ] ~doc:"Simulated worker threads.")

let theta_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "theta" ]
        ~doc:"Zipfian skew (0 = uniform, YCSB default 0.99; not with ycsb --mix la).")

let string_keys_arg =
  Arg.(value & flag & info [ "string-keys" ] ~doc:"Use 23-byte string keys.")

let protocol_arg =
  Arg.(
    value & flag
    & info [ "directory" ]
        ~doc:"Use the directory cache-coherence protocol (default: snoop).")

let low_bw_arg =
  Arg.(
    value & flag
    & info [ "low-bandwidth" ] ~doc:"Use the low-bandwidth NVM machine profile (6.2).")

let obs_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "obs" ] ~docv:"FILE"
        ~doc:
          "Instrument the measured phase and dump per-phase attribution and the \
           bandwidth timeline as JSON to $(docv) (collapsed flamegraph stacks go to \
           $(docv).folded).  Observing a run does not change its simulated results.")

(* Bad counts and skews exit 2 with a message before anything runs. *)
let require_positive flags =
  List.iter
    (fun (flag, v) ->
      if v < 1 then begin
        Printf.eprintf "--%s must be at least 1 (got %d)\n" flag v;
        exit 2
      end)
    flags

(* A flag that the rest of the command line makes moot exits 2 with a
   message, rather than being silently ignored. *)
let refuse_flags ~because flags =
  List.iter
    (fun (flag, given) ->
      if given then begin
        Printf.eprintf "--%s does not apply to %s\n" flag because;
        exit 2
      end)
    flags

(* [theta] defaults to YCSB's 0.99. *)
let require_theta theta =
  let theta = Option.value theta ~default:0.99 in
  if not (theta >= 0.0 && theta < 1.0) then begin
    Printf.eprintf "--theta must be in [0, 1) (got %g)\n" theta;
    exit 2
  end;
  theta

let run_ycsb sys mix keys ops threads theta string_keys directory low_bw obs_out =
  (* The load phase starts from an empty index and inserts without
     skew: a key count or a skew would be silently ignored. *)
  if mix = Workload.Ycsb.Load_a then
    refuse_flags ~because:"--mix la (the load phase starts empty)"
      [ ("keys", keys <> None); ("theta", theta <> None) ];
  let keys = Option.value keys ~default:100_000 in
  require_positive [ ("keys", keys); ("ops", ops); ("threads", threads) ];
  if sys = Experiments.Factory.Pactree_sys && threads > Pactree.Smo_log.max_writers then begin
    Printf.eprintf "--threads above %d: PACTree's writers would share spare slots (got %d)\n"
      Pactree.Smo_log.max_writers threads;
    exit 2
  end;
  let theta = require_theta theta in
  let t0 = Unix.gettimeofday () in
  let protocol = if directory then Nvm.Config.Directory else Nvm.Config.Snoop in
  let profile = if low_bw then Nvm.Config.dcpmm_low_bw else Nvm.Config.dcpmm in
  let machine = Nvm.Machine.create ~profile ~protocol ~numa_count:2 () in
  let b = Experiments.Factory.make_backend machine ~string_keys sys in
  let kind =
    if string_keys then Workload.Keyset.String_keys else Workload.Keyset.Int_keys
  in
  let obs =
    Option.map (fun _ -> Obs.Recorder.create machine ~sample_interval:20e-6 ()) obs_out
  in
  let r =
    Workload.Runner.run ~machine ~index:b.b_index ?service:b.b_service ?splits:b.b_splits ?obs
      ~mix ~kind ~loaded:keys ~ops ~threads ~theta ()
  in
  Format.printf "index      : %s@." (Experiments.Factory.name sys);
  Format.printf "workload   : %a, %d keys, %d ops, %d threads, theta %.2f@."
    Workload.Ycsb.pp_mix mix keys ops threads theta;
  Format.printf "throughput : %.3f Mops/s (simulated)@." (Workload.Runner.mops r);
  Format.printf "elapsed    : %.3f ms (simulated)@." (r.Workload.Runner.elapsed *. 1e3);
  let p q = Workload.Latency.percentile r.Workload.Runner.latency q *. 1e6 in
  Format.printf "latency    : p50 %.1f us, p99 %.1f us, p99.9 %.1f us, p99.99 %.1f us@."
    (p 50.) (p 99.) (p 99.9) (p 99.99);
  (* what the tail is made of: the sampled ops at or above p99.9 that
     split a node *)
  Option.iter
    (fun (s, n) ->
      Format.printf "tail       : %d of the %d sampled ops at or above p99.9 split@." s n)
    r.Workload.Runner.tail_splits;
  Format.printf
    "NVM traffic: %.1f MB read, %.1f MB written, %d flushes (%d redundant), %d fences@."
    (float_of_int (Nvm.Stats.total_read_bytes r.Workload.Runner.nvm) /. 1e6)
    (float_of_int (Nvm.Stats.total_write_bytes r.Workload.Runner.nvm) /. 1e6)
    r.Workload.Runner.nvm.Nvm.Stats.flushes
    r.Workload.Runner.nvm.Nvm.Stats.flushes_elided r.Workload.Runner.nvm.Nvm.Stats.fences;
  let s = r.Workload.Runner.nvm in
  let per_op n = float_of_int n /. float_of_int r.Workload.Runner.ops in
  (* each fence writes one media XPLine per (NUMA, XPLine) group it
     drains; a group of fewer than 256 B is read first (FH1).  The
     directory's own writes are read-modify-writes too, not counted
     here. *)
  let partial = s.Nvm.Stats.rmw_reads - s.Nvm.Stats.dir_writes in
  Format.printf "XPL writes : %.2f per op (media writes, %.1f%% partial: read-modify-write)@."
    (per_op s.Nvm.Stats.media_writes)
    (if s.Nvm.Stats.media_writes = 0 then 0.0
     else 100.0 *. float_of_int partial /. float_of_int s.Nvm.Stats.media_writes);
  (* every access to a line is charged once, as a CPU-cache hit or a
     miss: the lines an op reads (DESIGN §2, "Read discipline"); a
     late hit waited for a software prefetch's line, which counts as
     no access of its own; an early buffer hit is a device read that
     the XPBuffer answered before its XPLine's media read completed *)
  Format.printf
    "line reads : %.2f per op (CPU-cache hits %.2f + misses %.2f, of which stores' %.2f; \
     software prefetches %.2f, late hits %.2f; early buffer hits %.2f)@."
    (per_op (s.Nvm.Stats.cache_hits + s.Nvm.Stats.cache_misses))
    (per_op s.Nvm.Stats.cache_hits) (per_op s.Nvm.Stats.cache_misses)
    (per_op s.Nvm.Stats.store_misses) (per_op s.Nvm.Stats.sw_prefetches)
    (per_op s.Nvm.Stats.late_hits) (per_op s.Nvm.Stats.early_buffer_hits);
  (* host cost of the measured phase alone, not of the preload *)
  Format.printf "host words : %.1f per op (minor words allocated)@."
    (r.Workload.Runner.host_words /. float_of_int r.Workload.Runner.ops);
  let resident =
    List.fold_left (fun acc p -> acc + Nvm.Pool.resident_bytes p) 0 (Nvm.Pool.all machine)
  in
  let loaded = if mix = Workload.Ycsb.Load_a then ops else keys in
  (* the load's host cost per key and the run's per op apart: the
     load's grows with the key count *)
  let load_us =
    if mix = Workload.Ycsb.Load_a then "no load phase"
    else
      Printf.sprintf "load %.2f us per loaded key"
        (r.Workload.Runner.load_host_s *. 1e6 /. float_of_int keys)
  in
  Format.printf
    "host       : %.1f s (%s, run %.2f us per op), top heap %.0f MB, pool images %.1f B per \
     loaded key@."
    (Unix.gettimeofday () -. t0) load_us
    (r.Workload.Runner.run_host_s *. 1e6 /. float_of_int r.Workload.Runner.ops)
    (float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6)
    (float_of_int resident /. float_of_int loaded);
  match (obs_out, obs) with
  | Some path, Some o ->
      Format.printf "%a@." Obs.Span.pp_table o.Obs.Recorder.span;
      Obs.Json.write_file path (Obs.Recorder.to_json o);
      Obs.Span.write_collapsed o.Obs.Recorder.span (path ^ ".folded");
      Format.printf "observability dump: %s (stacks: %s.folded)@." path path
  | _ -> ()

let ycsb_cmd =
  let doc = "Run one YCSB workload against one index." in
  Cmd.v
    (Cmd.info "ycsb" ~doc)
    Term.(
      const run_ycsb $ index_arg $ mix_arg $ keys_arg $ ops_arg $ threads_arg
      $ theta_arg $ string_keys_arg $ protocol_arg $ low_bw_arg $ obs_arg)

let run_crash rounds obs_out =
  require_positive [ ("rounds", rounds) ];
  let scale =
    { Experiments.Scale.quick with Experiments.Scale.keys = 20_000; ops = 20_000 }
  in
  (* Time-only recorder (no single machine spans the rounds): shows
     how much simulated time the rounds spend in the recovery phase. *)
  let span = Option.map (fun _ -> Obs.Span.create ()) obs_out in
  Option.iter Obs.Span.install span;
  Fun.protect
    ~finally:(fun () -> Option.iter Obs.Span.uninstall span)
    (fun () -> Experiments.Figures.sec6_8 ~rounds scale)
  |> List.iter (Format.printf "%a" Experiments.Figures.pp_table);
  match (obs_out, span) with
  | Some path, Some s ->
      Format.printf "%a@." Obs.Span.pp_table s;
      Obs.Json.write_file path (Obs.Span.to_json s);
      Format.printf "observability dump: %s@." path
  | _ -> ()

let crash_cmd =
  let doc = "Crash-injection recovery test (6.8)." in
  let rounds_arg = Arg.(value & opt int 100 & info [ "rounds" ] ~doc:"Crash rounds.") in
  Cmd.v (Cmd.info "crash" ~doc) Term.(const run_crash $ rounds_arg $ obs_arg)

(* ---------- crashmc: systematic crash-state model checking ---------- *)

let crashmc_systems name =
  match name with
  (* declaration order of [Factory.sys]: test/test_golden.ml pins the
     report lines in this order *)
  | "all" -> Ok (List.sort compare Experiments.Factory.all)
  | s -> (
      match Experiments.Factory.of_string s with
      | Some sys -> Ok [ sys ]
      | None -> Error ("unknown index: " ^ s))

(* A fresh single-socket machine with the system built on it. *)
let crashmc_sut sys =
  let machine = Nvm.Machine.create ~numa_count:1 () in
  (machine, Experiments.Factory.make_backend machine sys)

let run_crashmc index_name ops budget max_states seed workload mutate =
  (* An explicit --seed wins; PACTREE_SEED only replaces the default. *)
  let seed =
    match seed with
    | Some s -> s
    | None -> (
        match Des.Rng.env_seed ~default:1L with
        | s -> Int64.to_int s
        | exception Invalid_argument msg ->
            prerr_endline msg;
            exit 2)
  in
  require_positive [ ("ops", ops); ("budget", budget); ("max-states", max_states) ];
  if not (List.mem workload [ "insert"; "mixed" ]) then begin
    prerr_endline ("unknown workload: " ^ workload ^ " (expected insert or mixed)");
    exit 2
  end;
  match crashmc_systems index_name with
  | Error msg ->
      prerr_endline msg;
      exit 2
  | Ok systems ->
      let make_ops () =
        match workload with
        | "insert" -> Crashmc.Harness.insert_workload ops
        | "mixed" -> Crashmc.Harness.mixed_workload ~seed ops
        | other -> Printf.ksprintf failwith "unknown workload %S" other
      in
      let failed = ref false in
      List.iter
        (fun sys ->
          let machine, sut = crashmc_sut sys in
          let r =
            Crashmc.Harness.run ~budget_per_point:budget ~max_states ~seed
              ~name:(Experiments.Factory.id sys) ~machine ~sut ~ops:(make_ops ()) ()
          in
          Format.printf "%a@." Crashmc.Harness.pp_report r;
          if not (Crashmc.Harness.ok r) then begin
            failed := true;
            Format.printf "  seed %d (replay with --seed)@." seed
          end)
        systems;
      (* Mutation mode: drop one clwb of the run and demand the
         checker notices — proof the oracle has teeth.  The six dropped
         clwbs are spread over the clwbs an unfaulted run of the same
         ops makes, so all six are injected whatever that count is.
         The persist-order sanitizer rides along as a cross-check.  A
         redundant clwb (the line clean, or staged by the same thread
         with no store since) is never dropped: the fault passes over
         it to the next clwb that is not, and each mutant's line says
         which it dropped.  A mutant whose dropped clwb a later flush
         of the same line makes harmless is caught by neither oracle,
         nor should it be, so the invariant is per-mutant containment:
         every mutant the exhaustive checker convicts must also be
         flagged dynamically (the lint is at least as sensitive as the
         oracle on missing-flush bugs), and at least one injected
         mutant must be flagged overall. *)
      if mutate then
        List.iter
          (fun sys ->
            let clwbs =
              let m, sut = crashmc_sut sys in
              Nvm.Machine.set_flush_fault m (Some max_int);
              List.iter (Crashmc.Oracle.run_op sut.Baselines.System.b_index) (make_ops ());
              Nvm.Machine.flush_ticks m
            in
            let killed = ref 0 and tried = ref 0 in
            let injected = ref 0 and san_caught = ref 0 in
            while !tried < 6 do
              (* the midpoints of six equal shares of the run's clwbs *)
              let k = ((2 * !tried) + 1) * clwbs / 12 in
              incr tried;
              let m, sut = crashmc_sut sys in
              Nvm.Machine.set_flush_fault m (Some k);
              Pobj.Sanitizer.enable m;
              let r =
                Crashmc.Harness.run ~budget_per_point:budget ~max_states ~seed
                  ~max_violations:1 ~name:(Experiments.Factory.id sys) ~machine:m ~sut
                  ~ops:(make_ops ()) ()
              in
              let dropped = Nvm.Machine.flush_dropped m in
              let fired = dropped >= 0 in
              let flagged = fired && Pobj.Sanitizer.total () > 0 in
              if fired then begin
                incr injected;
                if flagged then incr san_caught
              end;
              Pobj.Sanitizer.disable m;
              let caught = not (Crashmc.Harness.ok r) in
              Format.printf "  mutant %d: clwb %d of %d%s; checker %s, sanitizer %s@." !tried k
                clwbs
                (if not fired then " never dropped"
                 else if dropped = k then " dropped"
                 else Printf.sprintf " redundant, clwb %d dropped" dropped)
                (if caught then "caught it" else "missed it")
                (if flagged then "flagged it" else "missed it");
              if caught then begin
                incr killed;
                if not flagged then begin
                  Format.printf
                    "  sanitizer missed a checker-convicted mutant (clwb %d) — seed %d@."
                    k seed;
                  failed := true
                end
              end
            done;
            Format.printf "%s mutation check: %d/%d dropped-clwb mutants caught@."
              (Experiments.Factory.id sys) !killed !tried;
            Format.printf "%s sanitizer cross-check: %d/%d injected mutants flagged@."
              (Experiments.Factory.id sys) !san_caught !injected;
            if !killed = 0 then begin
              Format.printf "  no mutant caught — checker has no teeth? seed %d@." seed;
              failed := true
            end;
            if !san_caught = 0 then begin
              Format.printf "  sanitizer flagged no mutant at all — seed %d@." seed;
              failed := true
            end)
          systems;
      if !failed then exit 1

let crashmc_cmd =
  let doc =
    "Systematic crash-state model checking: enumerate every crash image an op \
     trace allows under ADR semantics, recover each, check durable \
     linearizability."
  in
  let index_arg =
    Arg.(
      value & opt string "all"
      & info [ "index" ] ~docv:"INDEX"
          ~doc:("Index to check: " ^ system_ids ^ ", all."))
  in
  let ops_arg =
    Arg.(value & opt int 48 & info [ "ops" ] ~doc:"Operations in the recorded trace.")
  in
  let budget_arg =
    Arg.(
      value & opt int 48
      & info [ "budget" ] ~doc:"Max crash images enumerated per crash point.")
  in
  let max_states_arg =
    Arg.(
      value & opt int 20_000
      & info [ "max-states" ] ~doc:"Total crash-state cap per index.")
  in
  let seed_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Workload/enumeration seed.  Without it, the seed is $(b,PACTREE_SEED) if \
             that is set, else 1.")
  in
  let workload_arg =
    Arg.(
      value & opt string "mixed"
      & info [ "workload" ] ~doc:"Trace shape: insert (split-heavy) or mixed.")
  in
  let mutate_arg =
    Arg.(
      value & flag
      & info [ "mutate" ]
          ~doc:"Also run dropped-clwb mutants and require the checker to catch one.")
  in
  Cmd.v
    (Cmd.info "crashmc" ~doc)
    Term.(
      const run_crashmc $ index_arg $ ops_arg $ budget_arg $ max_states_arg
      $ seed_arg $ workload_arg $ mutate_arg)

let () =
  let doc = "PACTree (SOSP'21) reproduction benchmarks on a simulated NVM machine." in
  let info = Cmd.info "pactree_bench" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info [ ycsb_cmd; crash_cmd; crashmc_cmd ]))
