(** Open-loop service runs: build a sharded store over any system,
    bulk-load it and run the engine at one offered rate.

    Every run builds a {e fresh} machine + store (same seed), so runs
    are independent and deterministic. *)

type cfg = {
  sys : Factory.sys;
  shards : int;
  keys : int;  (** preloaded keys *)
  ops : int;  (** requests per run *)
  workers_per_shard : int;
  queue_capacity : int;
  mix : Workload.Ycsb.mix;
  kind : Workload.Keyset.kind;
  theta : float;
  seed : int64;
  numa : int;
  log_entries : int;
      (** Vestigial: sized the service redo log, which no longer
          exists; nothing reads it.  Kept so existing callers compile. *)
}

(** Defaults: 4 shards, 40K keys / 20K ops per run ([quick]: 2
    shards, 8K / 6K), 2 workers/shard, queue 64, A-mix, int keys,
    theta 0.99, 2 sockets. *)
val default : ?quick:bool -> Factory.sys -> cfg

(** Fresh machine + sharded store for [cfg] (boundaries cut from the
    loaded keyset). *)
val make_store : cfg -> Svc.Store.t

(** The engine configuration a run uses at offered [rate]; exposed so
    tests can tweak individual knobs. *)
val engine_config : cfg -> rate:float -> Svc.Engine.config

(** Build a fresh store, bulk-load it, run one open-loop point at
    [rate] requests/s. *)
val run_point : cfg -> rate:float -> Svc.Engine.result
