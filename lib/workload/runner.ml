module Index = Baselines.Index_intf

type result = {
  mix : Ycsb.mix;
  threads : int;
  ops : int;
  elapsed : float;
  throughput : float;
  latency : Latency.t;
  nvm : Nvm.Stats.t;
  host_words : float;
  load_host_s : float;
  run_host_s : float;
}

type service = Baselines.System.service = {
  body : unit -> unit;
  shutdown : unit -> unit;
}

let apply_op index op =
  match op with
  | Ycsb.Lookup k -> ignore (Index.lookup index k)
  | Ycsb.Upsert (k, v) -> Index.insert index k v
  | Ycsb.Insert_new (k, v) -> Index.insert index k v
  | Ycsb.Scan (k, n) -> ignore (Index.scan index k n)

(* Run one phase: [threads] workers each executing [per_thread] ops of
   [mix]; returns (end_time, merged latency recorder).  [start] keeps
   simulated time monotonic across phases on the same machine (device
   channel bookings are absolute times).  The end time is the latest
   finish of a worker or the service, so a sampler left sleeping to its
   next tick does not stretch the phase. *)
let phase ~machine ~index ~service ~obs ~mix ~kind ~loaded ~theta ~seed ~threads
    ~total_ops ~start =
  let numa_count = Nvm.Machine.numa_count machine in
  let sched = Des.Sched.create ~start () in
  let end_time = ref start in
  let finished () = end_time := Float.max !end_time (Des.Sched.now sched) in
  (match service with
  | Some s ->
      Des.Sched.spawn sched ~name:"service" (fun () ->
          s.body ();
          finished ())
  | None -> ());
  let recorders = Array.init threads (fun i -> Latency.create (Des.Rng.create ~seed:(Int64.of_int (i + 33)))) in
  let live = ref threads in
  let profile = Nvm.Machine.profile machine in
  for i = 0 to threads - 1 do
    let per_thread = (total_ops / threads) + if i < total_ops mod threads then 1 else 0 in
    Des.Sched.spawn sched
      ~numa:(i mod numa_count)
      ~name:(Printf.sprintf "worker%d" i)
      (fun () ->
        let stream = Ycsb.create ~mix ~kind ~loaded ~theta ~seed ~thread:i ~threads in
        let recorder = recorders.(i) in
        for _ = 1 to per_thread do
          let op = Ycsb.next stream in
          Des.Sched.charge profile.Nvm.Config.op_overhead;
          if Latency.should_sample recorder then begin
            let start = Des.Sched.now sched in
            apply_op index op;
            (* make sure accumulated charges land in the clock *)
            Des.Sched.delay 0.0;
            Latency.record recorder (Des.Sched.now sched -. start)
          end
          else apply_op index op
        done;
        Des.Sched.delay 0.0 (* materialise accumulated charges *);
        finished ();
        decr live;
        if !live = 0 then begin
          (match obs with
          | Some { Obs.Recorder.sampler = Some s; _ } -> Obs.Sampler.stop s
          | _ -> ());
          match service with Some s -> s.shutdown () | None -> ()
        end)
  done;
  (* spawned last: thread ids are the same with or without a sampler *)
  (match obs with
  | Some { Obs.Recorder.sampler = Some s; _ } -> Obs.Sampler.spawn s sched
  | _ -> ());
  Des.Sched.run sched;
  let merged = Latency.create (Des.Rng.create ~seed:1L) in
  Array.iter (fun r -> Latency.merge ~dst:merged ~src:r) recorders;
  (!end_time, merged)

let load ~machine ~index ?service ~kind ~loaded ~threads ?(seed = 42L) () =
  let end_time, _ =
    phase ~machine ~index ~service ~obs:None ~mix:Ycsb.Load_a ~kind ~loaded:0 ~theta:0.0
      ~seed ~threads ~total_ops:loaded ~start:0.0
  in
  end_time

let run ~machine ~index ?service ?obs ~mix ~kind ~loaded ~ops ~threads ?(theta = 0.99)
    ?(seed = 42L) () =
  let t0 = Unix.gettimeofday () in
  let start =
    if mix <> Ycsb.Load_a then load ~machine ~index ?service ~kind ~loaded ~threads ~seed ()
    else 0.0
  in
  let load_host_s = Unix.gettimeofday () -. t0 in
  (* Observe the measured phase only: the preparatory load would
     otherwise swamp the phase/traffic attribution. *)
  (match obs with Some o -> Obs.Span.install o.Obs.Recorder.span | None -> ());
  let before = Nvm.Stats.snapshot (Nvm.Machine.total_stats machine) in
  let t1 = Unix.gettimeofday () in
  let words0 = Gc.minor_words () in
  let end_time, latency =
    Fun.protect
      ~finally:(fun () ->
        match obs with Some o -> Obs.Span.uninstall o.Obs.Recorder.span | None -> ())
      (fun () ->
        match mix with
        | Ycsb.Load_a ->
            (* the load phase is the measurement *)
            phase ~machine ~index ~service ~obs ~mix ~kind ~loaded:0 ~theta:0.0 ~seed
              ~threads ~total_ops:ops ~start
        | _ ->
            phase ~machine ~index ~service ~obs ~mix ~kind ~loaded ~theta ~seed ~threads
              ~total_ops:ops ~start)
  in
  let host_words = Gc.minor_words () -. words0 in
  let run_host_s = Unix.gettimeofday () -. t1 in
  let elapsed = end_time -. start in
  let nvm = Nvm.Stats.diff (Nvm.Machine.total_stats machine) before in
  {
    mix;
    threads;
    ops;
    elapsed;
    throughput = (if elapsed > 0.0 then float_of_int ops /. elapsed else 0.0);
    latency;
    nvm;
    host_words;
    load_host_s;
    run_host_s;
  }

let mops r = r.throughput /. 1e6
