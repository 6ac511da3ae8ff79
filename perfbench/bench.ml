(* PACTree benchmark driver: one workload, one seed, a host-time budget.

   A run repeats rounds until [--seconds] of host time have passed.  A
   round builds a fresh simulated machine and index and loads it (the
   set-up), then runs the workload's measured phase on the
   discrete-event simulator.  Both are timed on the host clock; the
   measured phase is also measured on the simulated clock.  The rounds
   cycle through input sets drawn from the run's seed.  Rounds on the
   same input set must repeat their simulated results bit for bit (the
   driver checks that), so the simulated figures come from the first
   round of each set, and the further rounds only sharpen the host
   timings.

   Usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1
   With --trace 0 the metrics are end to end, with --trace 1 they are
   the per-layer ledger.  The last line of standard output is one JSON
   object with the keys correct, attempted, failed and metrics. *)

module Ycsb = Workload.Ycsb
module Keyset = Workload.Keyset
module Latency = Workload.Latency
module Stats = Nvm.Stats
module Tree = Pactree.Tree
module Index = Baselines.Index_intf
module Span = Obs.Span
module Store = Svc.Store
module Engine = Svc.Engine
module Svc_run = Experiments.Svc_run

(* Sizes are the same for every seed; the seed only changes which keys
   are requested and when requests arrive. *)
let keys = 20_000
let ops = 20_000
let threads = 16
let numa = 2
let theta = 0.99
let kind = Keyset.Int_keys

(* A run draws [subseeds] input sets from its seed, uses them in turn,
   one per round, and pools their simulated results: with one input set
   the tail latency still moves by several percent from seed to seed. *)
let subseeds = 8

(* The open-loop service: range shards fed by one Poisson source at a
   fixed offered rate, about half the knee, so that no request
   is refused and latency reflects the service rather than overload. *)
let shards = 4
let offered_rate = 0.8e6
let queue_capacity = 256

type workload = Ycsb_a | Ycsb_c | Service

let workloads = [ ("ycsb_a", Ycsb_a); ("ycsb_c", Ycsb_c); ("service", Service) ]

(* Closed-loop values are a function of the key, so every lookup can be
   checked without a model. *)
let value_of_key k = Hashtbl.hash k

let failures = ref []

let fail fmt = Printf.ksprintf (fun msg -> failures := msg :: !failures) fmt

(* ---------- the host clock, read every [chunk] index operations ----------

   The host is shared: memory traffic from neighbours slows this process
   by up to half, in bursts of under a second to whole minutes.  So a
   timed phase is cut into chunks of [chunk] index operations.  The
   simulation is deterministic, so chunk [j] does the same work in every
   round on the same input set, and nearly the same on the others, and a
   phase's host time is the sum over its chunks of each chunk's fastest
   time across rounds: the least disturbed cost the run saw.  Host time
   still moves with sustained contention, so only the set-up time is
   gated on; the per-operation host cost is gated on allocated words,
   which do not depend on the host. *)

let chunk = 500
let host_clock = Unix.gettimeofday
let marks = Array.make ((max keys ops / chunk) + 4) 0.0
let nmarks = ref 0
let ticks = ref 0

let mark () =
  if !nmarks < Array.length marks then begin
    marks.(!nmarks) <- host_clock ();
    incr nmarks
  end

(* Called after every index operation. *)
let tick () =
  incr ticks;
  if !ticks mod chunk = 0 then mark ()

(* [timed f] runs [f] and returns its result with its chunk durations. *)
let timed f =
  ticks := 0;
  nmarks := 0;
  mark ();
  let r = f () in
  mark ();
  (r, Array.init (!nmarks - 1) (fun i -> marks.(i + 1) -. marks.(i)))

(* An index that ticks the host clock after every operation. *)
module Ticking : Index.S with type t = Index.index = struct
  type t = Index.index

  let name = "ticking"

  let insert t k v =
    Index.insert t k v;
    tick ()

  let lookup t k =
    let r = Index.lookup t k in
    tick ();
    r

  let update t k v =
    let r = Index.update t k v in
    tick ();
    r

  let delete t k =
    let r = Index.delete t k in
    tick ();
    r

  let scan t k n =
    let r = Index.scan t k n in
    tick ();
    r
end

let ticking index = Index.Index ((module Ticking), index)

(* ---------- one round's measurements ---------- *)

type sim = {
  elapsed : float;  (** simulated seconds of the measured phase *)
  completed : int;
  lat : Latency.t;  (** every completed operation's latency *)
  nvm : Stats.t;
  layers : (string * float) list;  (** workload-specific counts *)
}

type round = {
  subseed : int;
  setup_chunks : float array;
  run_chunks : float array;
  direct_chunks : float array;  (** traced runs: the ops replayed outside the DES *)
  alloc_words : float;
  promoted_words : float;
  minor_gcs : int;
  setup_words : float;
  sim : sim;
  spans : Span.row list;
  failed : int;  (** operations that failed or were refused *)
  problems : string list;  (** failed output checks *)
}

let per_thread t = (ops / threads) + if t < ops mod threads then 1 else 0

(* ---------- closed loop: PACTree under YCSB A or C ---------- *)

type closed_env = {
  machine : Nvm.Machine.t;
  tree : Tree.t;
  index : Index.index;
  service : Workload.Runner.service;
  load_end : float;
}

let build_tree () =
  let machine = Nvm.Machine.create ~numa_count:numa () in
  let scale = Experiments.Scale.make ~keys:(keys + ops) ~ops ~thread_counts:[ 1 ] in
  let cfg =
    {
      Tree.default_config with
      data_capacity = scale.Experiments.Scale.data_capacity;
      search_capacity = scale.Experiments.Scale.search_capacity;
    }
  in
  let tree = Tree.create machine ~cfg () in
  let index = ticking (Baselines.Pactree_index.wrap tree) in
  let service = Experiments.Factory.pactree_service tree in
  let sched = Des.Sched.create () in
  Des.Sched.spawn sched ~name:"service" service.Workload.Runner.body;
  let op_overhead = (Nvm.Machine.profile machine).Nvm.Config.op_overhead in
  let live = ref threads in
  for t = 0 to threads - 1 do
    Des.Sched.spawn sched ~numa:(t mod numa) ~name:"loader" (fun () ->
        let i = ref t in
        while !i < keys do
          let k = Keyset.key kind !i in
          Des.Sched.charge op_overhead;
          Index.insert index k (value_of_key k);
          i := !i + threads
        done;
        Des.Sched.delay 0.0;
        decr live;
        if !live = 0 then service.Workload.Runner.shutdown ())
  done;
  Des.Sched.run sched;
  { machine; tree; index; service; load_end = Des.Sched.now sched }

let streams ~mix ~seed =
  Array.init threads (fun t ->
      Ycsb.create ~mix ~kind ~loaded:keys ~theta ~seed ~thread:t ~threads)

let apply index failed op =
  match op with
  | Ycsb.Lookup k -> (
      match Index.lookup index k with
      | Some v when v = value_of_key k -> ()
      | _ -> incr failed)
  | Ycsb.Insert_new (k, _) | Ycsb.Upsert (k, _) -> Index.insert index k (value_of_key k)
  | Ycsb.Scan _ -> incr failed

let run_closed env ~mix ~seed ~span =
  let sched = Des.Sched.create ~start:env.load_end () in
  Des.Sched.spawn sched ~name:"service" env.service.Workload.Runner.body;
  let op_overhead = (Nvm.Machine.profile env.machine).Nvm.Config.op_overhead in
  let lat = Latency.create ~sample_rate:1.0 (Des.Rng.create ~seed:0L) in
  let next = ref 0 and failed = ref 0 and live = ref threads in
  let streams = streams ~mix ~seed in
  for t = 0 to threads - 1 do
    Des.Sched.spawn sched ~numa:(t mod numa) ~name:"client" (fun () ->
        for _ = 1 to per_thread t do
          let op = Ycsb.next streams.(t) in
          Des.Sched.charge op_overhead;
          let t0 = Des.Sched.now sched in
          apply env.index failed op;
          Des.Sched.delay 0.0;
          Latency.record lat (Des.Sched.now sched -. t0);
          incr next
        done;
        decr live;
        if !live = 0 then env.service.Workload.Runner.shutdown ())
  done;
  let before = Stats.snapshot (Nvm.Machine.total_stats env.machine) in
  let counts () =
    let s = Tree.stats env.tree in
    [
      ("pactree_splits", s.Tree.splits);
      ("pactree_reader_retries", s.Tree.reader_retries);
      ("art_restarts", (Tree.art_stats env.tree).Pactree.Art.restarts);
    ]
  in
  let counts0 = counts () in
  Option.iter Span.install span;
  Fun.protect
    ~finally:(fun () -> Option.iter Span.uninstall span)
    (fun () -> Des.Sched.run sched);
  let nvm = Stats.diff (Nvm.Machine.total_stats env.machine) before in
  ( {
      elapsed = Des.Sched.now sched -. env.load_end;
      completed = !next;
      lat;
      nvm;
      layers =
        List.map2 (fun (name, v) (_, v0) -> (name, float_of_int (v - v0))) (counts ()) counts0;
    },
    !failed )

(* The round's operations applied directly to a freshly loaded tree,
   outside the simulator, one client after another: the host cost of
   the index and the NVM model without the scheduler. *)
let replay_closed env ~mix ~seed () =
  let failed = ref 0 in
  let streams = streams ~mix ~seed in
  for t = 0 to threads - 1 do
    for _ = 1 to per_thread t do
      apply env.index failed (Ycsb.next streams.(t))
    done
  done;
  if !failed > 0 then fail "direct replay: %d lookups missed" !failed

(* The tree holds exactly the loaded keys plus the round's fresh
   inserts, in order, each with its value. *)
let check_closed env ~mix ~seed =
  let expected = Hashtbl.create (keys + ops) in
  for i = 0 to keys - 1 do
    Hashtbl.replace expected (Keyset.key kind i) ()
  done;
  let streams = streams ~mix ~seed in
  for t = 0 to threads - 1 do
    for _ = 1 to per_thread t do
      match Ycsb.next streams.(t) with
      | Ycsb.Insert_new (k, _) | Ycsb.Upsert (k, _) -> Hashtbl.replace expected k ()
      | Ycsb.Lookup _ | Ycsb.Scan _ -> ()
    done
  done;
  let want = List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) expected []) in
  let got = Tree.scan env.tree (Pactree.Key.of_int 0) (keys + ops + 1) in
  if List.map fst got <> want then
    fail "full scan: %d keys, expected %d in order" (List.length got) (List.length want);
  let wrong = List.filter (fun (k, v) -> v <> value_of_key k) got in
  if wrong <> [] then fail "full scan: %d keys hold wrong values" (List.length wrong);
  match Tree.check_invariants env.tree with
  | _ -> ()
  | exception e -> fail "tree invariants: %s" (Printexc.to_string e)

(* ---------- open loop: the sharded service ---------- *)

let svc_cfg seed =
  {
    (Svc_run.default Experiments.Factory.Pactree_sys) with
    Svc_run.keys;
    ops;
    queue_capacity;
    theta;
    seed;
  }

(* As [Svc_run.make_store], with every shard's index ticking the host
   clock. *)
let build_store cfg =
  let machine = Nvm.Machine.create ~numa_count:numa () in
  let scale =
    Experiments.Scale.make ~keys:(((keys + ops) / shards) + 1) ~ops ~thread_counts:[ 1 ]
  in
  let store =
    Store.create ~machine
      ~boundaries:(Store.boundaries_for ~kind ~keys ~shards)
      ~make_backend:(fun ~shard:_ ~numa:_ ->
        let b =
          Experiments.Factory.make_backend machine ~scale Experiments.Factory.Pactree_sys
        in
        { b with Store.b_index = ticking b.Store.b_index })
      ~log_entries:cfg.Svc_run.log_entries ()
  in
  (store, Engine.load ~store ~kind ~keys ())

let svc_stream cfg =
  Ycsb.create ~mix:cfg.Svc_run.mix ~kind ~loaded:keys ~theta ~seed:cfg.Svc_run.seed
    ~thread:0 ~threads:1

let run_service (store, load_end) cfg ~span =
  let obs =
    Option.map
      (fun span -> { (Obs.Recorder.create (Store.machine store) ()) with Obs.Recorder.span })
      span
  in
  let r =
    Engine.run ~store ~config:(Svc_run.engine_config cfg ~rate:offered_rate) ~start:load_end
      ?obs ()
  in
  let lat l p = Latency.percentile l p in
  ( {
      elapsed = r.Engine.r_elapsed;
      completed = r.Engine.r_completed;
      lat = r.Engine.r_total_lat;
      nvm = r.Engine.r_nvm;
      layers =
        [
          ("svc_queue_p99", lat r.Engine.r_queue_lat 99.0);
          ("svc_service_p99", lat r.Engine.r_service_lat 99.0);
          ("svc_commits", float_of_int r.Engine.r_batches);
          ("svc_batched_writes", float_of_int r.Engine.r_batched_writes);
          ("svc_imbalance", Engine.imbalance r);
        ];
    },
    r.Engine.r_rejected + (r.Engine.r_generated - r.Engine.r_completed) )

(* The request stream applied directly through the store's router,
   outside the simulator and without the engine. *)
let replay_service (store, _) cfg () =
  let failed = ref 0 in
  let stream = svc_stream cfg in
  for _ = 1 to ops do
    match Ycsb.next stream with
    | Ycsb.Lookup k -> if Store.lookup store k = None then incr failed
    | Ycsb.Insert_new (k, v) | Ycsb.Upsert (k, v) -> Store.insert store k v
    | Ycsb.Scan (k, n) -> ignore (Store.scan store k n)
  done;
  if !failed > 0 then fail "direct replay: %d lookups missed" !failed

(* Loaded keys keep their values, every accepted write is readable, and
   a cross-shard scan returns the whole key set in order. *)
let check_service (store, _) cfg =
  let expected = Hashtbl.create (keys + ops) in
  for i = 0 to keys - 1 do
    Hashtbl.replace expected (Keyset.key kind i) i
  done;
  let stream = svc_stream cfg in
  for _ = 1 to ops do
    match Ycsb.next stream with
    | Ycsb.Insert_new (k, v) | Ycsb.Upsert (k, v) -> Hashtbl.replace expected k v
    | Ycsb.Lookup _ | Ycsb.Scan _ -> ()
  done;
  let want = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) expected []) in
  let got = Store.scan store (Pactree.Key.of_int 0) (keys + ops + 1) in
  if got <> want then
    fail "cross-shard scan: %d pairs, expected %d" (List.length got) (List.length want);
  let wrong =
    Hashtbl.fold (fun k v n -> if Store.lookup store k = Some v then n else n + 1) expected 0
  in
  if wrong > 0 then fail "%d lookups returned a wrong value" wrong;
  match Store.invariants store with
  | () -> ()
  | exception e -> fail "store invariants: %s" (Printexc.to_string e)

(* ---------- rounds ---------- *)

(* [with_span machine trace f] runs [f] with a span recorder on
   [machine] when tracing, and returns its phase rows. *)
let with_span machine trace f =
  let span = if trace then Some (Span.create ~machine ()) else None in
  let r = f span in
  (r, match span with Some s -> Span.rows s | None -> [])

let round ~workload ~subseed ~seed ~trace ~check:check_output =
  (* the set-up builds and loads; it returns the measured phase, the
     output check and the direct replay as closures over its state *)
  let words0 = Gc.minor_words () in
  let (measure, check, direct), setup_chunks =
    timed (fun () ->
        match workload with
        | Ycsb_a | Ycsb_c ->
            let mix = if workload = Ycsb_a then Ycsb.Workload_a else Ycsb.Workload_c in
            let env = build_tree () in
            ( (fun () ->
                with_span env.machine trace (fun span -> run_closed env ~mix ~seed ~span)),
              (fun () -> check_closed env ~mix ~seed),
              fun () -> replay_closed (build_tree ()) ~mix ~seed )
        | Service ->
            let cfg = svc_cfg seed in
            let env = build_store cfg in
            ( (fun () ->
                with_span (Store.machine (fst env)) trace (fun span ->
                    run_service env cfg ~span)),
              (fun () -> check_service env cfg),
              fun () -> replay_service (build_store cfg) cfg ))
  in
  let setup_words = Gc.minor_words () -. words0 in
  let gc0 = Gc.quick_stat () in
  let words1 = Gc.minor_words () in
  let ((sim, failed), spans), run_chunks = timed measure in
  let alloc_words = Gc.minor_words () -. words1 in
  let gc1 = Gc.quick_stat () in
  if check_output then check ();
  let direct_chunks =
    if trace then begin
      let replay = direct () in
      snd (timed replay)
    end
    else [||]
  in
  {
    subseed;
    setup_chunks;
    run_chunks;
    direct_chunks;
    alloc_words;
    promoted_words = gc1.Gc.promoted_words -. gc0.Gc.promoted_words;
    minor_gcs = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
    setup_words;
    sim;
    spans;
    failed;
    problems = List.rev !failures;
  }

(* Each round runs in a child process.  The simulator numbers pools
   process-wide and those numbers feed its cache model, so only a fresh
   process repeats a round exactly; it also gives every round the same
   fresh heap. *)
let in_child f =
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let oc = Unix.out_channel_of_descr wr in
      (try
         Marshal.to_channel oc (f ()) [];
         close_out oc
       with e ->
         prerr_endline ("round failed: " ^ Printexc.to_string e);
         Unix._exit 1);
      Unix._exit 0
  | pid ->
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let result = try Some (Marshal.from_channel ic) with End_of_file -> None in
      close_in ic;
      let rec wait () =
        match Unix.waitpid [] pid with
        | _, status -> status
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
      in
      (match (wait (), result) with
      | Unix.WEXITED 0, Some r -> r
      | _ ->
          prerr_endline "a benchmark round did not complete";
          exit 1)

(* ---------- reporting ---------- *)

(* Host seconds of a phase: per chunk the fastest time over rounds,
   summed over chunks (see [chunk]). *)
let host_seconds chunks_of rounds =
  let runs = List.map chunks_of rounds in
  let n = Array.length (List.hd runs) in
  if List.exists (fun c -> Array.length c <> n) runs then begin
    fail "host chunks differ between rounds";
    List.fold_left Float.min infinity (List.map (Array.fold_left ( +. ) 0.0) runs)
  end
  else begin
    let total = ref 0.0 in
    for j = 0 to n - 1 do
      total := !total +. List.fold_left (fun m c -> Float.min m c.(j)) infinity runs
    done;
    !total
  end

let us_per_op seconds = seconds /. float_of_int ops *. 1e6

(* The first round of each input set, in order. *)
let distinct rounds =
  List.filter_map
    (fun j -> List.find_opt (fun r -> r.subseed = j) rounds)
    (List.init subseeds Fun.id)

(* Mean over the input sets of a per-round figure. *)
let mean_over_sets f rounds =
  let sets = distinct rounds in
  List.fold_left (fun acc r -> acc +. f r) 0.0 sets /. float_of_int (List.length sets)

let end_to_end rounds =
  let sims = List.map (fun r -> r.sim) (distinct rounds) in
  let pooled = Latency.create ~sample_rate:1.0 (Des.Rng.create ~seed:0L) in
  List.iter (fun s -> Latency.merge ~dst:pooled ~src:s.lat) sims;
  let sum f = List.fold_left (fun acc s -> acc +. f s) 0.0 sims in
  [
    ( "sim_mops",
      "Mops/s",
      sum (fun s -> float_of_int s.completed) /. sum (fun s -> s.elapsed) /. 1e6 );
    ("sim_p50_us", "us", Latency.percentile pooled 50.0 *. 1e6);
    ("sim_p999_us", "us", Latency.percentile pooled 99.9 *. 1e6);
    ( "host_words_per_op",
      "words",
      mean_over_sets (fun r -> r.alloc_words) rounds /. float_of_int ops );
    ("setup_s", "s", host_seconds (fun r -> r.setup_chunks) rounds);
  ]

let phases =
  [
    "trie_search";
    "dnode_scan";
    "dnode_insert";
    "smo";
    "log_replay";
    "alloc";
    "flush_wait";
    "svc_queue";
    "svc_batch";
  ]

(* The simulated half of the ledger for one input set. *)
let sim_layers r =
  let sim = r.sim in
  let n = float_of_int sim.completed in
  let per_op x = float_of_int x /. n in
  let per_kop x = x *. 1000.0 /. n in
  let layer name = Option.value ~default:0.0 (List.assoc_opt name sim.layers) in
  let phase name =
    match List.find_opt (fun row -> Span.phase_name row.Span.r_phase = name) r.spans with
    | Some row -> row.Span.r_seconds *. 1e6 /. n
    | None -> 0.0
  in
  let nvm = sim.nvm in
  let accesses = nvm.Stats.cache_hits + nvm.Stats.cache_misses in
  let commits = layer "svc_commits" in
  List.map (fun p -> ("sim_" ^ p ^ "_us_per_op", "us", phase p)) phases
  @ [
      ("nvm_flushes_per_op", "count", per_op nvm.Stats.flushes);
      ("nvm_flushes_elided_per_op", "count", per_op nvm.Stats.flushes_elided);
      ("nvm_fences_per_op", "count", per_op nvm.Stats.fences);
      ("nvm_media_read_bytes_per_op", "B", per_op (Stats.total_read_bytes nvm));
      ("nvm_media_write_bytes_per_op", "B", per_op (Stats.total_write_bytes nvm));
      ("nvm_read_amplification", "ratio", Stats.read_amplification nvm);
      ("nvm_write_amplification", "ratio", Stats.write_amplification nvm);
      ( "nvm_cpu_cache_hit_ratio",
        "ratio",
        if accesses = 0 then 0.0
        else float_of_int nvm.Stats.cache_hits /. float_of_int accesses );
      ("nvm_remote_accesses_per_op", "count", per_op nvm.Stats.remote_accesses);
      ("pactree_splits_per_kop", "count", per_kop (layer "pactree_splits"));
      ("pactree_reader_retries_per_kop", "count", per_kop (layer "pactree_reader_retries"));
      ("art_restarts_per_kop", "count", per_kop (layer "art_restarts"));
      ("svc_queue_p99_us", "us", layer "svc_queue_p99" *. 1e6);
      ("svc_service_p99_us", "us", layer "svc_service_p99" *. 1e6);
      ( "svc_writes_per_commit",
        "count",
        if commits = 0.0 then 0.0 else layer "svc_batched_writes" /. commits );
      ("svc_shard_imbalance", "ratio", layer "svc_imbalance");
    ]

let per_layer rounds =
  let per_op f = mean_over_sets f rounds /. float_of_int ops in
  let host =
    [
      ("host_us_per_op_traced", "us", us_per_op (host_seconds (fun r -> r.run_chunks) rounds));
      ( "host_index_only_us_per_op",
        "us",
        us_per_op (host_seconds (fun r -> r.direct_chunks) rounds) );
      ("host_promoted_words_per_op", "words", per_op (fun r -> r.promoted_words));
      ( "host_minor_gcs_per_kop",
        "count",
        1000.0 *. per_op (fun r -> float_of_int r.minor_gcs) );
      ( "host_setup_words_per_key",
        "words",
        mean_over_sets (fun r -> r.setup_words) rounds /. float_of_int keys );
    ]
  in
  (* simulated figures: the mean over the input sets *)
  let sets = List.map sim_layers (distinct rounds) in
  let add = List.map2 (fun (name, unit, a) (_, _, b) -> (name, unit, a +. b)) in
  let k = float_of_int (List.length sets) in
  host
  @ List.map
      (fun (name, unit, v) -> (name, unit, v /. k))
      (List.fold_left add (List.hd sets) (List.tl sets))

let print_result ~correct ~attempted ~failed metrics =
  let metric (name, unit, v) =
    Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" name v unit
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", " (List.map metric metrics))

let usage () =
  prerr_endline
    "usage: bench.exe --workload (ycsb_a|ycsb_c|service) --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref None and seed = ref None and seconds = ref 10.0 and trace = ref false in
  let rec parse = function
    | "--workload" :: w :: rest ->
        (match List.assoc_opt w workloads with
        | Some w -> workload := Some w
        | None -> usage ());
        parse rest
    | "--seed" :: s :: rest ->
        (match Int64.of_string_opt s with Some s -> seed := Some s | None -> usage ());
        parse rest
    | "--seconds" :: s :: rest ->
        (match float_of_string_opt s with
        | Some s when s > 0.0 -> seconds := s
        | _ -> usage ());
        parse rest
    | "--trace" :: t :: rest ->
        (match t with "0" -> trace := false | "1" -> trace := true | _ -> usage ());
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let workload, seed =
    match (!workload, !seed) with Some w, Some s -> (w, s) | _ -> usage ()
  in
  let start = host_clock () in
  (* every input set runs at least once; the first round also checks the
     whole index contents (every round checks each lookup it makes) *)
  let rec loop acc n =
    if n >= subseeds && host_clock () -. start >= !seconds then List.rev acc
    else begin
      let subseed = n mod subseeds in
      let seed = Int64.add (Int64.mul seed (Int64.of_int subseeds)) (Int64.of_int subseed) in
      let r =
        in_child (fun () ->
            round ~workload ~subseed ~seed ~trace:!trace ~check:(n = 0))
      in
      loop (r :: acc) (n + 1)
    end
  in
  let rounds = loop [] 0 in
  failures := List.rev (List.concat_map (fun r -> r.problems) rounds);
  let firsts = distinct rounds in
  List.iteri
    (fun i r ->
      if r.sim <> (List.nth firsts r.subseed).sim then
        fail "round %d: simulated results differ from an earlier round on the same inputs" i)
    rounds;
  let metrics = if !trace then per_layer rounds else end_to_end rounds in
  List.iter
    (fun (name, _, v) -> if not (Float.is_finite v) then fail "metric %s is not finite" name)
    metrics;
  List.iter (fun m -> Printf.eprintf "check failed: %s\n" m) (List.rev !failures);
  let failed = List.fold_left (fun acc r -> acc + r.failed) 0 rounds in
  Printf.printf "%d rounds in %.1f s\n" (List.length rounds) (host_clock () -. start);
  print_result
    ~correct:(!failures = [] && failed = 0)
    ~attempted:(List.length rounds * ops) ~failed
    (List.map (fun (n, u, v) -> (n, u, if Float.is_finite v then v else 0.0)) metrics)
