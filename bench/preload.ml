(* The preload of perfbench's closed-loop workloads (its set-up, which
   [setup_s] times), at any key count: a fresh machine and PACTree
   sized for twice [keys] keys, [keys] int keys inserted by 16
   simulated threads (thread [t] inserts keys [t], [t + 16], ...) with
   the updater running.  Per key: the host cost of an insert inside
   the simulator.  [main.exe micro]'s [preload-20k] row runs it, and
   so does [preload_run.exe], which [preload_per_key.sh] builds from
   this file against each revision it compares. *)

let threads = 16

(* One preload of [keys] keys; the simulated time it ends at. *)
let preload keys =
  let machine = Nvm.Machine.create ~numa_count:2 () in
  let scale = Experiments.Scale.make ~keys:(2 * keys) ~ops:keys ~thread_counts:[ 1 ] in
  let cfg =
    {
      Pactree.Tree.default_config with
      data_capacity = scale.Experiments.Scale.data_capacity;
      search_capacity = scale.Experiments.Scale.search_capacity;
    }
  in
  let tree = Pactree.Tree.create machine ~cfg () in
  let service = Experiments.Factory.pactree_service tree in
  let sched = Des.Sched.create () in
  Des.Sched.spawn sched ~name:"service" service.Workload.Runner.body;
  let op_overhead = (Nvm.Machine.profile machine).Nvm.Config.op_overhead in
  let live = ref threads in
  for t = 0 to threads - 1 do
    Des.Sched.spawn sched ~numa:(t mod 2) ~name:"loader" (fun () ->
        let i = ref t in
        while !i < keys do
          let k = Workload.Keyset.key Workload.Keyset.Int_keys !i in
          Des.Sched.charge op_overhead;
          Pactree.Tree.insert tree k (Hashtbl.hash k);
          i := !i + threads
        done;
        Des.Sched.delay 0.0;
        decr live;
        if !live = 0 then service.Workload.Runner.shutdown ())
  done;
  Des.Sched.run sched;
  Des.Sched.now sched

(* [preload keys]'s host ns and minor words per key, and its simulated
   end time.  Each call builds a large heap, which a bechamel series
   would carry from one call to the next, so the time is the fastest
   of [runs] calls, each from a compacted heap, as perfbench takes the
   least disturbed set-up time; the words and the end time are the
   same in every call. *)
let cost ~keys ~runs =
  let best = ref infinity and words = ref 0.0 and sim = ref 0.0 in
  for _ = 1 to runs do
    Gc.compact ();
    let w0 = Gc.minor_words () and t0 = Unix.gettimeofday () in
    sim := preload keys;
    let dt = Unix.gettimeofday () -. t0 in
    best := Float.min !best dt;
    words := Gc.minor_words () -. w0
  done;
  let per_key x = x /. float_of_int keys in
  (per_key (!best *. 1e9), per_key !words, !sim)
