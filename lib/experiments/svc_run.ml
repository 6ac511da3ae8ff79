module Engine = Svc.Engine
module Store = Svc.Store
module Latency = Workload.Latency

type cfg = {
  sys : Factory.sys;
  shards : int;
  keys : int;
  ops : int;
  workers_per_shard : int;
  queue_capacity : int;
  admission : Engine.admission;
  process : Workload.Arrival.process;
  mix : Workload.Ycsb.mix;
  kind : Workload.Keyset.kind;
  theta : float;
  seed : int64;
  numa : int;
  log_entries : int;
}

let default ?(quick = false) sys =
  {
    sys;
    shards = (if quick then 2 else 4);
    keys = (if quick then 8_000 else 40_000);
    ops = (if quick then 6_000 else 20_000);
    workers_per_shard = 2;
    queue_capacity = 64;
    admission = Engine.Reject;
    process = Workload.Arrival.Poisson;
    mix = Workload.Ycsb.Workload_a;
    kind = Workload.Keyset.Int_keys;
    theta = 0.99;
    seed = 42L;
    numa = 2;
    log_entries = 1024;
  }

let make_store cfg =
  let machine = Nvm.Machine.create ~numa_count:cfg.numa () in
  let string_keys = cfg.kind = Workload.Keyset.String_keys in
  let boundaries =
    Store.boundaries_for ~kind:cfg.kind ~keys:cfg.keys ~shards:cfg.shards
  in
  Store.create ~machine ~boundaries
    ~make_backend:(fun ~shard:_ ~numa:_ ->
      Factory.make_backend machine ~string_keys cfg.sys)
    ()

let engine_config cfg ~rate =
  {
    Engine.rate;
    process = cfg.process;
    ops = cfg.ops;
    workers_per_shard = cfg.workers_per_shard;
    queue_capacity = cfg.queue_capacity;
    admission = cfg.admission;
    mix = cfg.mix;
    kind = cfg.kind;
    loaded = cfg.keys;
    theta = cfg.theta;
    seed = cfg.seed;
  }

let run_point cfg ~rate =
  let store = make_store cfg in
  let start = Engine.load ~store ~kind:cfg.kind ~keys:cfg.keys () in
  Engine.run ~store ~config:(engine_config cfg ~rate) ~start ()

(* Offered load far past any plausible capacity: the bounded queues
   reject the excess and completions proceed at service speed. *)
let probe_rate = 200e6

let calibrate cfg =
  (* A hard overdrive under Reject admission biases low: arrivals stop
     almost immediately, cold shards drain and idle while the hottest
     shard serves its queue alone, and completions/elapsed reflects
     that lopsided tail.  So use the overdriven run only as a floor,
     then re-measure at a moderate overload where every shard stays
     busy end to end (doubling until the point actually saturates). *)
  let floor_rate = (run_point cfg ~rate:probe_rate).Engine.r_throughput in
  let rec refine rate =
    let t = (run_point cfg ~rate).Engine.r_throughput in
    if t >= 0.9 *. rate then refine (2.0 *. rate) else t
  in
  refine (2.5 *. Float.max 1.0 floor_rate)

let default_fractions = [ 0.3; 0.5; 0.7; 0.85; 1.0; 1.15; 1.3; 1.5 ]

let sweep ?(fractions = default_fractions) cfg =
  let capacity = calibrate cfg in
  List.map
    (fun f ->
      let rate = Float.max 1.0 (f *. capacity) in
      (rate, run_point cfg ~rate))
    fractions

let saturated (rate, r) = r.Engine.r_throughput < 0.9 *. rate

let check_sweep points =
  let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
  let* () = if points = [] then Error "empty sweep" else Ok () in
  let* () =
    (* below the knee: achieved tracks offered, so each point must
       keep up with the previous (2% tolerance).  Past the knee the
       curve plateaus and individual points jitter; require each
       saturated point to hold 95% of the best achieved so far
       instead of strict point-to-point monotonicity. *)
    let rec mono best = function
      | ((rate, r) as point) :: rest ->
          let t = r.Engine.r_throughput in
          let tol = if saturated point then 0.95 else 0.98 in
          if t < tol *. best then
            Error
              (Printf.sprintf
                 "achieved throughput collapsed: %.0f/s at offered %.0f/s after a best \
                  of %.0f/s"
                 t rate best)
          else mono (Float.max best t) rest
      | [] -> Ok ()
    in
    mono 0.0 points
  in
  let* () =
    if saturated (List.hd points) then
      Error "first sweep point already saturated (sweep should start below the knee)"
    else Ok ()
  in
  let* () =
    if not (List.exists saturated points) then
      Error "no saturation knee: every point keeps up with offered load"
    else Ok ()
  in
  List.fold_left
    (fun acc ((rate, r) as point) ->
      let* () = acc in
      if saturated point then begin
        let qp99 = Latency.percentile r.Engine.r_queue_lat 99.0 in
        let sp99 = Latency.percentile r.Engine.r_service_lat 99.0 in
        if qp99 <= sp99 then
          Error
            (Printf.sprintf
               "saturated point (offered %.0f/s): queue p99 %.2f us not above \
                service p99 %.2f us"
               rate (qp99 *. 1e6) (sp99 *. 1e6))
        else Ok ()
      end
      else Ok ())
    (Ok ()) points

let report_config cfg =
  {
    Obs.Svc_report.c_index = Factory.name cfg.sys;
    c_shards = cfg.shards;
    c_workers_per_shard = cfg.workers_per_shard;
    c_queue_capacity = cfg.queue_capacity;
    c_admission = Engine.admission_name cfg.admission;
    c_arrival = Workload.Arrival.process_name cfg.process;
    c_keys = cfg.keys;
    c_ops = cfg.ops;
    c_mix = Format.asprintf "%a" Workload.Ycsb.pp_mix cfg.mix;
    c_theta = cfg.theta;
    c_numa = cfg.numa;
  }

let lat_of l =
  {
    Obs.Svc_report.l_p50_us = Latency.percentile l 50.0 *. 1e6;
    l_p99_us = Latency.percentile l 99.0 *. 1e6;
    l_p9999_us = Latency.percentile l 99.99 *. 1e6;
    l_mean_us = Latency.mean l *. 1e6;
    l_max_us = Latency.max l *. 1e6;
  }

let point_of_result (r : Engine.result) =
  let per_op c =
    if r.Engine.r_completed > 0 then
      float_of_int c /. float_of_int r.Engine.r_completed
    else 0.0
  in
  {
    Obs.Svc_report.p_offered_mops = r.Engine.r_offered /. 1e6;
    p_achieved_mops = r.Engine.r_throughput /. 1e6;
    p_generated = r.Engine.r_generated;
    p_completed = r.Engine.r_completed;
    p_rejected = r.Engine.r_rejected;
    p_rejection_rate =
      (if r.Engine.r_generated > 0 then
         float_of_int r.Engine.r_rejected /. float_of_int r.Engine.r_generated
       else 0.0);
    p_queue = lat_of r.Engine.r_queue_lat;
    p_service = lat_of r.Engine.r_service_lat;
    p_total = lat_of r.Engine.r_total_lat;
    p_shard_completed = Array.to_list r.Engine.r_shard_completed;
    p_imbalance = Engine.imbalance r;
    p_fences_per_op = per_op r.Engine.r_nvm.Nvm.Stats.fences;
    p_flushes_per_op = per_op r.Engine.r_nvm.Nvm.Stats.flushes;
  }

let report cfg points =
  Obs.Svc_report.to_json (report_config cfg)
    (List.map (fun (_, r) -> point_of_result r) points)
