module Ycsb = Workload.Ycsb
module Latency = Workload.Latency
module Arrival = Workload.Arrival
module Waitq = Des.Sched.Waitq

type admission = Reject | Block

let admission_name = function Reject -> "reject" | Block -> "block"

let admission_of_string = function
  | "reject" -> Ok Reject
  | "block" -> Ok Block
  | s -> Error (Printf.sprintf "unknown admission policy %S (reject|block)" s)

type mode =
  | Open_loop of { rate : float; process : Arrival.process }
  | Closed_loop of { clients : int }

type config = {
  mode : mode;
  ops : int;
  workers_per_shard : int;
  queue_capacity : int;
  admission : admission;
  mix : Ycsb.mix;
  kind : Workload.Keyset.kind;
  loaded : int;
  theta : float;
  seed : int64;
}

let default_config ~loaded ~ops =
  {
    mode = Open_loop { rate = 2e6; process = Arrival.Poisson };
    ops;
    workers_per_shard = 2;
    queue_capacity = 64;
    admission = Reject;
    mix = Ycsb.Workload_a;
    kind = Workload.Keyset.Int_keys;
    loaded;
    theta = 0.99;
    seed = 42L;
  }

type result = {
  r_mode : mode;
  r_shards : int;
  r_generated : int;
  r_completed : int;
  r_rejected : int;
  r_elapsed : float;
  r_offered : float;
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

type req = {
  q_op : Ycsb.op;
  q_arrival : float;
  mutable q_deq : float;
  mutable q_finished : bool;
  q_done : Waitq.t;
      (* signalled on completion: the submitting client's in closed loop,
         one nobody waits on in open loop *)
}

type squeue = {
  items : req Queue.t;
  mutable closed : bool;
  nonempty : Waitq.t;
  nonfull : Waitq.t;
}

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
  let machine = Store.machine store in
  let nshards = Store.shard_count store in
  let sched = Des.Sched.create ~start () in
  let profile = Nvm.Machine.profile machine in
  let queues =
    Array.init nshards (fun _ ->
        {
          items = Queue.create ();
          closed = false;
          nonempty = Waitq.create ();
          nonfull = Waitq.create ();
        })
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
  let n_sources =
    match cfg.mode with Open_loop _ -> 1 | Closed_loop { clients } -> max 1 clients
  in
  let live_sources = ref n_sources in
  let live_workers = ref (nshards * cfg.workers_per_shard) in
  let services = Store.services store in
  (match obs with
  | Some { Obs.Recorder.sampler = Some s; _ } -> Obs.Sampler.spawn s sched
  | _ -> ());
  List.iter
    (fun (shard, svc) ->
      Des.Sched.spawn sched
        ~numa:(Store.shard_numa store shard)
        ~name:(Printf.sprintf "svc%d" shard)
        (fun () -> svc.Workload.Runner.body ()))
    services;
  (* the ack, at the current simulated time *)
  let finish ~shard r =
    let t = Des.Sched.now sched in
    r.q_finished <- true;
    incr completed;
    shard_completed.(shard) <- shard_completed.(shard) + 1;
    if Latency.should_sample total_lat then begin
      Latency.record queue_lat (r.q_deq -. r.q_arrival);
      Latency.record service_lat (t -. r.q_deq);
      Latency.record total_lat (t -. r.q_arrival)
    end;
    Waitq.signal_all sched r.q_done
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
              Waitq.signal_all sched q.nonfull;
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
          decr live_workers;
          if !live_workers = 0 then on_all_workers_done ())
    done
  done;
  (* ----- load sources ----- *)
  let close_queues () =
    Array.iter
      (fun q ->
        q.closed <- true;
        Waitq.signal_all sched q.nonempty)
      queues
  in
  let enqueue q r =
    Queue.push r q.items;
    Waitq.signal_one sched q.nonempty
  in
  (* Queue [r] for its shard; [false] if admission rejected it. *)
  let submit r =
    incr generated;
    let q = queues.(Store.shard_of_key store (key_of_op r.q_op)) in
    if Queue.length q.items < cfg.queue_capacity then begin
      enqueue q r;
      true
    end
    else
      match cfg.admission with
      | Reject ->
          incr rejected;
          false
      | Block ->
          while Queue.length q.items >= cfg.queue_capacity do
            Waitq.wait q.nonfull
          done;
          enqueue q r;
          true
  in
  let request op ~done_ =
    { q_op = op; q_arrival = clock (); q_deq = 0.0; q_finished = false; q_done = done_ }
  in
  (match cfg.mode with
  | Open_loop { rate; process } ->
      Des.Sched.spawn sched ~numa:0 ~name:"source" (fun () ->
          let arr =
            Arrival.create ~process ~rate
              (Des.Rng.create ~seed:(Int64.add cfg.seed 7919L))
          in
          let stream =
            Ycsb.create ~mix:cfg.mix ~kind:cfg.kind ~loaded:cfg.loaded
              ~theta:cfg.theta ~seed:cfg.seed ~thread:0 ~threads:1
          in
          (* nobody waits on an open-loop request's completion *)
          let unwatched = Waitq.create () in
          for _ = 1 to cfg.ops do
            Des.Sched.delay (Arrival.next_gap arr);
            ignore (submit (request (Ycsb.next stream) ~done_:unwatched) : bool)
          done;
          decr live_sources;
          if !live_sources = 0 then close_queues ())
  | Closed_loop { clients } ->
      let clients = max 1 clients in
      let numa_count = Nvm.Machine.numa_count machine in
      for c = 0 to clients - 1 do
        let per = (cfg.ops / clients) + if c < cfg.ops mod clients then 1 else 0 in
        Des.Sched.spawn sched
          ~numa:(c mod numa_count)
          ~name:(Printf.sprintf "client%d" c)
          (fun () ->
            let stream =
              Ycsb.create ~mix:cfg.mix ~kind:cfg.kind ~loaded:cfg.loaded
                ~theta:cfg.theta ~seed:cfg.seed ~thread:c ~threads:clients
            in
            let done_ = Waitq.create () in
            for _ = 1 to per do
              let r = request (Ycsb.next stream) ~done_ in
              if submit r then
                while not r.q_finished do
                  Waitq.wait done_
                done
            done;
            decr live_sources;
            if !live_sources = 0 then close_queues ())
      done);
  (match obs with Some o -> Obs.Span.install o.Obs.Recorder.span | None -> ());
  let before = Nvm.Stats.snapshot (Nvm.Machine.total_stats machine) in
  Fun.protect
    ~finally:(fun () ->
      match obs with Some o -> Obs.Span.uninstall o.Obs.Recorder.span | None -> ())
    (fun () -> Des.Sched.run sched);
  let elapsed = Des.Sched.now sched -. start in
  let offered =
    match cfg.mode with
    | Open_loop { rate; _ } -> rate
    | Closed_loop _ ->
        if elapsed > 0.0 then float_of_int !generated /. elapsed else 0.0
  in
  {
    r_mode = cfg.mode;
    r_shards = nshards;
    r_generated = !generated;
    r_completed = !completed;
    r_rejected = !rejected;
    r_elapsed = elapsed;
    r_offered = offered;
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

let pp_result ppf r =
  let p l q = Latency.percentile l q *. 1e6 in
  Format.fprintf ppf
    "@[<v>%s offered %.3f Mops/s -> %.3f Mops/s (%d/%d done, %d rejected, %.1f%% \
     loss)@,\
     latency us: queue p50 %.2f p99 %.2f | service p50 %.2f p99 %.2f | total p50 \
     %.2f p99 %.2f p99.99 %.2f@,\
     shard imbalance %.2fx@]"
    (match r.r_mode with
    | Open_loop { process; _ } -> Arrival.process_name process
    | Closed_loop { clients } -> Printf.sprintf "closed(%d)" clients)
    (r.r_offered /. 1e6) (r.r_throughput /. 1e6) r.r_completed r.r_generated
    r.r_rejected
    (if r.r_generated > 0 then
       100.0 *. float_of_int r.r_rejected /. float_of_int r.r_generated
     else 0.0)
    (p r.r_queue_lat 50.0) (p r.r_queue_lat 99.0) (p r.r_service_lat 50.0)
    (p r.r_service_lat 99.0) (p r.r_total_lat 50.0) (p r.r_total_lat 99.0)
    (p r.r_total_lat 99.99)
    (imbalance r)
