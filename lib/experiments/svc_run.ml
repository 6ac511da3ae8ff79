module Engine = Svc.Engine
module Store = Svc.Store

type cfg = {
  sys : Factory.sys;
  shards : int;
  keys : int;
  ops : int;
  workers_per_shard : int;
  queue_capacity : int;
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
    ops = cfg.ops;
    workers_per_shard = cfg.workers_per_shard;
    queue_capacity = cfg.queue_capacity;
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
