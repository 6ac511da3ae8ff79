(** Service saturation sweeps: build a sharded store over any system,
    calibrate its capacity with a deliberately over-driven open-loop
    run, then sweep offered load across the knee.

    Every sweep point runs on a {e fresh} machine + store (same seed),
    so points are independent and the whole sweep is deterministic. *)

type cfg = {
  sys : Factory.sys;
  shards : int;
  keys : int;  (** preloaded keys *)
  ops : int;  (** requests per sweep point *)
  workers_per_shard : int;
  queue_capacity : int;
  admission : Svc.Engine.admission;
  process : Workload.Arrival.process;
  mix : Workload.Ycsb.mix;
  kind : Workload.Keyset.kind;
  theta : float;
  seed : int64;
  numa : int;
  log_entries : int;
      (** Vestigial: sized the service redo log, which no longer
          exists; nothing reads it.  Kept so existing callers compile. *)
}

(** Defaults: 4 shards, 40K keys / 20K ops per point ([quick]: 2
    shards, 8K / 6K), 2 workers/shard, queue 64, Reject, Poisson,
    A-mix, int keys, theta 0.99, 2 sockets. *)
val default : ?quick:bool -> Factory.sys -> cfg

(** Fresh machine + sharded store for [cfg] (boundaries cut from the
    loaded keyset). *)
val make_store : cfg -> Svc.Store.t

(** The engine configuration a sweep point runs with (open loop at
    [rate]); exposed so tests can tweak individual knobs. *)
val engine_config : cfg -> rate:float -> Svc.Engine.config

(** Build a fresh store, bulk-load it, run one open-loop point at
    [rate] requests/s. *)
val run_point : cfg -> rate:float -> Svc.Engine.result

(** Saturation capacity in requests/s: achieved throughput under
    moderate overload (a hard overdrive is only used as a floor — with
    Reject admission its lopsided tail drain biases low). *)
val calibrate : cfg -> float

(** [sweep cfg] — calibrate, then run 0.3 .. 1.5 of capacity in
    increasing order.  Returns (offered rate, result) per point. *)
val sweep : cfg -> (float * Svc.Engine.result) list

(** A point is saturated when it achieves < 90% of its offered load. *)
val saturated : float * Svc.Engine.result -> bool

(** Shape assertions for a sweep that crossed the knee: achieved
    throughput monotone below the knee (2% tolerance) and holding a
    95% plateau past it, a saturation knee exists (some point
    achieves < 90% of offered while the first point keeps up), and
    queue p99 exceeds service p99 at every saturated point. *)
val check_sweep : (float * Svc.Engine.result) list -> (unit, string) result

val report_config : cfg -> Obs.Svc_report.config

val point_of_result : Svc.Engine.result -> Obs.Svc_report.point

val report : cfg -> (float * Svc.Engine.result) list -> Obs.Json.t
