(** Request engine: open-loop load over a {!Store}.

    Requests flow [source -> per-shard bounded queue -> shard worker
    pool].  A single generator emits [ops] requests with Poisson
    arrivals at a configured offered rate, independent of system
    progress, so queueing delay is observable.  The closed-loop
    benchmark loop (clients that wait for each op) is
    {!Workload.Runner}.

    Each shard worker pops one request at a time and applies it
    straight to the owning shard's index through {!Store}; a write is
    acknowledged once that index call returns, which is when the
    backend has made it durable (every backend is durably
    linearizable op by op), so an acked write is durable and visible
    to every later read.  A request whose shard queue is full is
    dropped and counted in [r_rejected].

    Every completion records three latencies: {e queue} (arrival to
    dequeue), {e service} (dequeue to ack: the index operation) and
    {e total}. *)

type config = {
  rate : float;  (** offered requests per simulated second *)
  ops : int;  (** total requests to generate *)
  workers_per_shard : int;
  queue_capacity : int;
  mix : Workload.Ycsb.mix;
  kind : Workload.Keyset.kind;
  loaded : int;  (** keys preloaded (workload key-space parameter) *)
  theta : float;
  seed : int64;
}

type result = {
  r_shards : int;
  r_generated : int;
  r_completed : int;
  r_rejected : int;
  r_elapsed : float;
      (** simulated seconds, from [start] to the last worker's or shard
          service's finish *)
  r_throughput : float;  (** completions per second *)
  r_queue_lat : Workload.Latency.t;
  r_service_lat : Workload.Latency.t;
  r_total_lat : Workload.Latency.t;
  r_shard_completed : int array;
  r_batches : int;
      (** Vestigial: the number of writes applied (there are no
          batches any more); kept so existing callers compile. *)
  r_batched_writes : int;  (** Vestigial: the same count as [r_batches]. *)
  r_nvm : Nvm.Stats.t;  (** machine counter delta over the run *)
}

(** Completions per shard, max/mean (1.0 = perfectly balanced). *)
val imbalance : result -> float

(** [load ~store ~kind ~keys ()] bulk-loads keys [0..keys-1] (value =
    index) through per-shard loader threads pinned to each shard's
    NUMA domain, with the shards' background services running.
    Returns the simulated end time, to pass as [run]'s [start]. *)
val load : store:Store.t -> kind:Workload.Keyset.kind -> keys:int -> unit -> float

(** Execute one run.  [start] continues the simulated clock from a
    previous phase on the same machine.  With [obs], the recorder's
    span tracer is installed for the run (feeding the [svc_queue]
    phase) and its sampler runs on the run's scheduler; the result is
    bit-identical to the same run without [obs].  Raises
    [Invalid_argument] if [workers_per_shard] or [queue_capacity] is
    below 1, or if [rate] is not positive. *)
val run :
  store:Store.t -> config:config -> ?start:float -> ?obs:Obs.Recorder.t -> unit -> result
