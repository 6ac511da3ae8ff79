(* A sharded KV service (lib/svc): range-partitioned PACTree shards
   driven by an open-loop Poisson request source, then hit with a
   flaky power failure and recovered shard by shard.  Each write is
   acknowledged once its shard's index has applied (and so persisted)
   it.

     dune exec examples/service_demo.exe *)

module Key = Pactree.Key
module Store = Svc.Store
module Engine = Svc.Engine
module Machine = Nvm.Machine

let keys = 8_000

let shards = 4

let () =
  let machine = Machine.create ~numa_count:2 () in
  let scale =
    Experiments.Scale.make ~keys:(keys / shards * 2) ~ops:4_000 ~thread_counts:[ 1 ]
  in
  let boundaries =
    Store.boundaries_for ~kind:Workload.Keyset.Int_keys ~keys ~shards
  in
  let store =
    Store.create ~machine ~boundaries
      ~make_backend:(fun ~shard:_ ~numa:_ ->
        Experiments.Factory.make_backend machine ~scale
          Experiments.Factory.Pactree_sys)
      ()
  in
  Printf.printf "sharded store: %d PACTree shards on %d NUMA domains\n"
    (Store.shard_count store)
    (Machine.numa_count machine);

  (* Phase 1: bulk load, then an open-loop run near the saturation
     knee — requests arrive on a Poisson schedule whether or not the
     service keeps up, so queueing delay is visible. *)
  let start = Engine.load ~store ~kind:Workload.Keyset.Int_keys ~keys () in
  let config =
    Experiments.Svc_run.engine_config
      {
        (Experiments.Svc_run.default Experiments.Factory.Pactree_sys) with
        Experiments.Svc_run.shards;
        keys;
        ops = 4_000;
      }
      ~rate:1.2e6
  in
  let r = Engine.run ~store ~config ~start () in
  Format.printf "%a@." Engine.pp_result r;
  let p l q = Workload.Latency.percentile l q *. 1e6 in
  Printf.printf "queue p99 %.1f us vs service p99 %.1f us\n"
    (p r.Engine.r_queue_lat 99.0)
    (p r.Engine.r_service_lat 99.0);

  (* Phase 2: acknowledged writes through the store (a write is acked
     when [Store.insert] returns), then a flaky power failure (each
     unflushed line survives with probability 0.5) and recovery of
     every shard. *)
  let acked =
    List.init 64 (fun i ->
        let k = Key.of_int (1_000_000 + i) in
        Store.insert store k i;
        (k, i))
  in
  let rng = Des.Rng.create ~seed:7L in
  Machine.crash machine (Machine.Flaky (0.5, rng));
  Store.recover store;
  Store.invariants store;
  Printf.printf "crashed (flaky) and recovered all %d shards\n"
    (Store.shard_count store);
  List.iter
    (fun (k, v) ->
      if Store.lookup store k <> Some v then
        failwith
          (Printf.sprintf "acknowledged write %d lost across the crash" v))
    acked;
  Printf.printf "all %d acknowledged writes survived\n" (List.length acked);

  (* Phase 3: the store stays usable, including cross-shard scans. *)
  Store.insert store (Key.of_int 424_242) 42;
  assert (Store.lookup store (Key.of_int 424_242) = Some 42);
  let run = Store.scan store (Key.of_int 0) 10 in
  assert (List.length run = 10);
  print_endline "post-recovery writes and cross-shard scans OK"
