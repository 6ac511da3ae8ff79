module Ycsb = Workload.Ycsb
module Latency = Workload.Latency
module Waitq = Des.Sched.Waitq

type config = {
  rate : float;
  ops : int;
  workers_per_shard : int;
  queue_capacity : int;
  mix : Ycsb.mix;
  kind : Workload.Keyset.kind;
  loaded : int;
  theta : float;
  seed : int64;
}

type result = {
  r_shards : int;
  r_generated : int;
  r_completed : int;
  r_rejected : int;
  r_elapsed : float;
  r_throughput : float;
  r_queue_lat : Latency.t;
  r_service_lat : Latency.t;
  r_total_lat : Latency.t;
  r_shard_completed : int array;
  r_batches : int;
  r_batched_writes : int;
  r_nvm : Nvm.Stats.t;
}

let imbalance r =
  let n = Array.length r.r_shard_completed in
  if n = 0 then 1.0
  else begin
    let total = Array.fold_left ( + ) 0 r.r_shard_completed in
    let mx = Array.fold_left max 0 r.r_shard_completed in
    if total = 0 then 1.0 else float_of_int (mx * n) /. float_of_int total
  end

type req = { q_op : Ycsb.op; q_arrival : float; mutable q_deq : float }

type squeue = { items : req Queue.t; mutable closed : bool; nonempty : Waitq.t }

let key_of_op = function
  | Ycsb.Lookup k | Ycsb.Upsert (k, _) | Ycsb.Insert_new (k, _) | Ycsb.Scan (k, _) -> k

(* ---------- bulk load ---------- *)

let load ~store ~kind ~keys () =
  let sched = Des.Sched.create () in
  let nshards = Store.shard_count store in
  (* route the whole keyset up front so each loader stays shard-local *)
  let per_shard = Array.make nshards [] in
  for i = keys - 1 downto 0 do
    let s = Store.shard_of_key store (Workload.Keyset.key kind i) in
    per_shard.(s) <- i :: per_shard.(s)
  done;
  let services = Store.services store in
  List.iter
    (fun (shard, svc) ->
      Des.Sched.spawn sched
        ~numa:(Store.shard_numa store shard)
        ~name:(Printf.sprintf "svc%d" shard)
        (fun () -> svc.Workload.Runner.body ()))
    services;
  let live = ref nshards in
  let profile = Nvm.Machine.profile (Store.machine store) in
  for shard = 0 to nshards - 1 do
    Des.Sched.spawn sched
      ~numa:(Store.shard_numa store shard)
      ~name:(Printf.sprintf "loader%d" shard)
      (fun () ->
        List.iter
          (fun i ->
            Des.Sched.charge profile.Nvm.Config.op_overhead;
            Store.insert store (Workload.Keyset.key kind i) i)
          per_shard.(shard);
        Des.Sched.delay 0.0;
        decr live;
        if !live = 0 then
          List.iter (fun (_, svc) -> svc.Workload.Runner.shutdown ()) services)
  done;
  Des.Sched.run sched;
  Des.Sched.now sched

(* ---------- the engine ---------- *)

let run ~store ~config:cfg ?(start = 0.0) ?obs () =
  if cfg.workers_per_shard < 1 then
    invalid_arg
      (Printf.sprintf "Engine.run: workers_per_shard = %d, must be at least 1"
         cfg.workers_per_shard);
  if cfg.queue_capacity < 1 then
    invalid_arg
      (Printf.sprintf "Engine.run: queue_capacity = %d, must be at least 1"
         cfg.queue_capacity);
  if not (cfg.rate > 0.0) then
    invalid_arg (Printf.sprintf "Engine.run: rate = %g, must be positive" cfg.rate);
  let machine = Store.machine store in
  let nshards = Store.shard_count store in
  let sched = Des.Sched.create ~start () in
  let profile = Nvm.Machine.profile machine in
  let queues =
    Array.init nshards (fun _ ->
        { items = Queue.create (); closed = false; nonempty = Waitq.create () })
  in
  let generated = ref 0 and rejected = ref 0 and completed = ref 0 in
  let shard_completed = Array.make nshards 0 in
  let writes = ref 0 in
  let mk_lat seed = Latency.create ~sample_rate:1.0 (Des.Rng.create ~seed) in
  let queue_lat = mk_lat 101L
  and service_lat = mk_lat 102L
  and total_lat = mk_lat 103L in
  (* effective clock of the calling simulated thread (incl. charges) *)
  let clock () = Des.Sched.now sched +. Des.Sched.pending_charge () in
  let live_workers = ref (nshards * cfg.workers_per_shard) in
  (* the latest finish of a worker or a shard service: a sampler left
     sleeping to its next tick does not stretch the run *)
  let end_time = ref start in
  let finished () = end_time := Float.max !end_time (Des.Sched.now sched) in
  let services = Store.services store in
  List.iter
    (fun (shard, svc) ->
      Des.Sched.spawn sched
        ~numa:(Store.shard_numa store shard)
        ~name:(Printf.sprintf "svc%d" shard)
        (fun () ->
          svc.Workload.Runner.body ();
          finished ()))
    services;
  (* the ack, at the current simulated time *)
  let finish ~shard r =
    let t = Des.Sched.now sched in
    incr completed;
    shard_completed.(shard) <- shard_completed.(shard) + 1;
    Latency.record queue_lat (r.q_deq -. r.q_arrival);
    Latency.record service_lat (t -. r.q_deq);
    Latency.record total_lat (t -. r.q_arrival)
  in
  let on_all_workers_done () =
    (match obs with
    | Some { Obs.Recorder.sampler = Some s; _ } -> Obs.Sampler.stop s
    | _ -> ());
    List.iter (fun (_, svc) -> svc.Workload.Runner.shutdown ()) services
  in
  (* ----- shard workers ----- *)
  for shard = 0 to nshards - 1 do
    let q = queues.(shard) in
    for w = 0 to cfg.workers_per_shard - 1 do
      Des.Sched.spawn sched
        ~numa:(Store.shard_numa store shard)
        ~name:(Printf.sprintf "worker%d.%d" shard w)
        (fun () ->
          let rec await () =
            if not (Queue.is_empty q.items) then true
            else if q.closed then false
            else begin
              let span = Obs.Span.start Obs.Span.Svc_queue in
              Waitq.wait q.nonempty;
              Obs.Span.stop span;
              await ()
            end
          in
          let rec loop () =
            if await () then begin
              let r = Queue.pop q.items in
              r.q_deq <- clock ();
              Des.Sched.charge profile.Nvm.Config.op_overhead;
              (match r.q_op with
              | Ycsb.Lookup k -> ignore (Store.lookup store k : int option)
              | Ycsb.Scan (k, n) ->
                  ignore (Store.scan store k n : (Pactree.Key.t * int) list)
              | Ycsb.Upsert (k, v) | Ycsb.Insert_new (k, v) ->
                  incr writes;
                  Store.insert store k v);
              (* ack point: the index call has returned, so the op is
                 durable (each backend persists its own writes in
                 order) and visible to reads on any worker *)
              Des.Sched.delay 0.0;
              finish ~shard r;
              loop ()
            end
          in
          loop ();
          finished ();
          decr live_workers;
          if !live_workers = 0 then on_all_workers_done ())
    done
  done;
  (* ----- the load source ----- *)
  (* Queue [r] for its shard, or drop it if that queue is full. *)
  let submit r =
    incr generated;
    let q = queues.(Store.shard_of_key store (key_of_op r.q_op)) in
    if Queue.length q.items < cfg.queue_capacity then begin
      Queue.push r q.items;
      Waitq.signal_one sched q.nonempty
    end
    else incr rejected
  in
  Des.Sched.spawn sched ~numa:0 ~name:"source" (fun () ->
      let arrivals = Des.Rng.create ~seed:(Int64.add cfg.seed 7919L) in
      let stream =
        Ycsb.create ~mix:cfg.mix ~kind:cfg.kind ~loaded:cfg.loaded ~theta:cfg.theta
          ~seed:cfg.seed ~thread:0 ~threads:1
      in
      for _ = 1 to cfg.ops do
        (* Poisson arrivals: an exponential gap by inverse CDF; [float]
           is in [0, 1), so [1 - u] never hits 0 *)
        Des.Sched.delay (-.log (1.0 -. Des.Rng.float arrivals) /. cfg.rate);
        let op = Ycsb.next stream in
        submit { q_op = op; q_arrival = clock (); q_deq = 0.0 }
      done;
      Array.iter
        (fun q ->
          q.closed <- true;
          Waitq.signal_all sched q.nonempty)
        queues);
  (* spawned last: thread ids are the same with or without a sampler *)
  (match obs with
  | Some { Obs.Recorder.sampler = Some s; _ } -> Obs.Sampler.spawn s sched
  | _ -> ());
  (match obs with Some o -> Obs.Span.install o.Obs.Recorder.span | None -> ());
  let before = Nvm.Stats.snapshot (Nvm.Machine.total_stats machine) in
  Fun.protect
    ~finally:(fun () ->
      match obs with Some o -> Obs.Span.uninstall o.Obs.Recorder.span | None -> ())
    (fun () -> Des.Sched.run sched);
  let elapsed = !end_time -. start in
  {
    r_shards = nshards;
    r_generated = !generated;
    r_completed = !completed;
    r_rejected = !rejected;
    r_elapsed = elapsed;
    r_throughput =
      (if elapsed > 0.0 then float_of_int !completed /. elapsed else 0.0);
    r_queue_lat = queue_lat;
    r_service_lat = service_lat;
    r_total_lat = total_lat;
    r_shard_completed = shard_completed;
    r_batches = !writes;
    r_batched_writes = !writes;
    r_nvm = Nvm.Stats.diff (Nvm.Machine.total_stats machine) before;
  }
