(** Request engine: open-loop load over a {!Store}.

    Requests flow [source -> per-shard bounded queue -> shard worker
    pool].  A single generator emits [ops] requests on its own arrival
    schedule ({!Workload.Arrival}) at a configured offered rate,
    independent of system progress — the setting in which saturation
    and queueing delay are observable.  The closed-loop benchmark loop
    (clients that wait for each op) is {!Workload.Runner}.

    Each shard worker pops one request at a time and applies it
    straight to the owning shard's index through {!Store}; a write is
    acknowledged once that index call returns, which is when the
    backend has made it durable (every backend is durably
    linearizable op by op), so an acked write is durable and visible
    to every later read.

    Admission: when a shard queue is full, {!Reject} drops the
    request (counted, open-loop property preserved) while {!Block}
    makes the source wait for space (backpressure; degrades an open
    loop toward closed behaviour).

    Every completion records three latencies: {e queue} (arrival to
    dequeue), {e service} (dequeue to ack: the index operation) and
    {e total}.  Past the saturation knee queue latency dominates
    service latency; that split is the point of the exercise. *)

type admission = Reject | Block

val admission_name : admission -> string

val admission_of_string : string -> (admission, string) result

type config = {
  rate : float;  (** offered requests per simulated second *)
  process : Workload.Arrival.process;
  ops : int;  (** total requests to generate *)
  workers_per_shard : int;
  queue_capacity : int;
  admission : admission;
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
  r_offered : float;  (** requests per second offered: [config.rate] *)
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
    below 1. *)
val run :
  store:Store.t -> config:config -> ?start:float -> ?obs:Obs.Recorder.t -> unit -> result

val pp_result : Format.formatter -> result -> unit
