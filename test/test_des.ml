(* Tests for the discrete-event scheduler substrate. *)

let test_event_queue_order () =
  let q = Des.Event_queue.create () in
  Des.Event_queue.add q ~time:3.0 30;
  Des.Event_queue.add q ~time:1.0 10;
  Des.Event_queue.add q ~time:2.0 20;
  let pop () =
    let time = Des.Event_queue.min_time q in
    (time, Des.Event_queue.pop_min q)
  in
  Alcotest.(check (pair (float 0.0) int)) "min" (1.0, 10) (pop ());
  Alcotest.(check (pair (float 0.0) int)) "next" (2.0, 20) (pop ());
  Alcotest.(check (pair (float 0.0) int)) "last" (3.0, 30) (pop ());
  Alcotest.(check bool) "empty" true (Des.Event_queue.is_empty q)

let test_event_queue_fifo_ties () =
  let q = Des.Event_queue.create () in
  Des.Event_queue.add q ~time:1.0 7;
  Des.Event_queue.add q ~time:1.0 3;
  Des.Event_queue.add q ~time:1.0 5;
  let order = List.init 3 (fun _ -> Des.Event_queue.pop_min q) in
  Alcotest.(check (list int)) "fifo" [ 7; 3; 5 ] order

let test_event_queue_many () =
  let q = Des.Event_queue.create () in
  let rng = Des.Rng.create ~seed:42L in
  for i = 0 to 999 do
    Des.Event_queue.add q ~time:(Des.Rng.float rng) i
  done;
  Alcotest.(check int) "length" 1000 (Des.Event_queue.length q);
  let prev = ref neg_infinity in
  for _ = 1 to 1000 do
    let t = Des.Event_queue.min_time q in
    ignore (Des.Event_queue.pop_min q : int);
    Alcotest.(check bool) "sorted" true (t >= !prev);
    prev := t
  done

(* [add], [pop_min] and [push_pop] interleaved at random over a few
   distinct times, so most events tie, against a list kept in (time,
   insertion order) order.  [push_pop] is an insertion followed by a
   pop, on an empty queue too. *)
let test_event_queue_model () =
  for seed = 0 to 49 do
    let rng = Des.Rng.create ~seed:(Int64.of_int seed) in
    let q = Des.Event_queue.create () in
    let model = ref [] (* (time, order, value), sorted *) in
    let order = ref 0 in
    let insert time v =
      let e = (time, !order, v) in
      incr order;
      model := List.merge compare !model [ e ]
    in
    let pop () =
      match !model with
      | [] -> Alcotest.fail "model empty"
      | (_, _, v) :: rest ->
          model := rest;
          v
    in
    for step = 1 to 400 do
      let time = float_of_int (Des.Rng.int rng 4) in
      let what = Printf.sprintf "seed %d step %d" seed step in
      (match !model with
      | (first, _, _) :: _ ->
          Alcotest.(check (float 0.0)) (what ^ ": min_time") first (Des.Event_queue.min_time q)
      | [] -> ());
      match (!model, Des.Rng.int rng 3) with
      | _, 0 ->
          Des.Event_queue.add q ~time step;
          insert time step
      | _ :: _, 1 -> Alcotest.(check int) (what ^ ": pop_min") (pop ()) (Des.Event_queue.pop_min q)
      | _ ->
          insert time step;
          let expected = pop () in
          Alcotest.(check int) (what ^ ": push_pop") expected
            (Des.Event_queue.push_pop q ~time step)
    done;
    Alcotest.(check int) "length" (List.length !model) (Des.Event_queue.length q);
    List.iter
      (fun (_, _, v) -> Alcotest.(check int) "drain" v (Des.Event_queue.pop_min q))
      !model;
    Alcotest.(check bool) "empty" true (Des.Event_queue.is_empty q)
  done

let test_rng_deterministic () =
  let a = Des.Rng.create ~seed:7L and b = Des.Rng.create ~seed:7L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Des.Rng.next a) (Des.Rng.next b)
  done

(* Every workload draws from this generator: pin its first outputs for a
   fixed seed so a change in how the state is stored cannot silently
   move every simulated result. *)
let golden_seed = 2024L

let test_rng_golden () =
  let take f =
    let rng = Des.Rng.create ~seed:golden_seed in
    List.init 16 (fun _ -> f rng)
  in
  Alcotest.(check (list int64))
    "next"
    [
      -6958747601272378155L; 1793612131670815442L; 5507758030568793471L;
      2143266886397966425L; -3125285500173794438L; -8256369782005867797L;
      2522659877027852951L; -7446135466501036142L; 3114776667611587888L;
      7874116809064317745L; 8514204351514911545L; -3007098771123876581L;
      -2877272553787774069L; -6244870045158887547L; 2685005278848832341L;
      -5741096944969042745L;
    ]
    (take Des.Rng.next);
  Alcotest.(check (list int))
    "int 1000"
    [ 730; 721; 735; 212; 589; 909; 475; 737; 944; 872; 772; 517; 773; 34; 170; 435 ]
    (take (fun rng -> Des.Rng.int rng 1000));
  Alcotest.(check (list (float 0.0)))
    "float"
    [
      0x1.3edb1fd9f11ddp-1; 0x1.8e430bb1511fp-4; 0x1.31bdf2fd636e8p-2; 0x1.dbe69e0ae9bb8p-4;
      0x1.a94182cac8ec8p-1; 0x1.1ad6f6dad28abp-1; 0x1.18124e571b018p-3; 0x1.3154067d33894p-1;
      0x1.59cf4702dd4fp-3; 0x1.b519ee1370d8p-2; 0x1.d8a21efd74868p-2; 0x1.ac8947332d4b9p-1;
      0x1.b023bfb6aaff5p-1; 0x1.52ab878fb3a75p-1; 0x1.2a18709a4eaa8p-3; 0x1.60a70d7e0c146p-1;
    ]
    (take Des.Rng.float)

let test_rng_split_independent () =
  let a = Des.Rng.create ~seed:7L in
  let child = Des.Rng.split a in
  let x = Des.Rng.next child and y = Des.Rng.next a in
  Alcotest.(check bool) "different values" true (x <> y)

let test_rng_int_bounds () =
  let rng = Des.Rng.create ~seed:1L in
  for _ = 1 to 10_000 do
    let v = Des.Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_float_bounds () =
  let rng = Des.Rng.create ~seed:2L in
  for _ = 1 to 10_000 do
    let v = Des.Rng.float rng in
    Alcotest.(check bool) "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_sched_delays_order_threads () =
  let sched = Des.Sched.create () in
  let log = ref [] in
  Des.Sched.spawn sched ~name:"slow" (fun () ->
      Des.Sched.delay 2.0;
      log := ("slow", Des.Sched.now sched) :: !log);
  Des.Sched.spawn sched ~name:"fast" (fun () ->
      Des.Sched.delay 1.0;
      log := ("fast", Des.Sched.now sched) :: !log);
  Des.Sched.run sched;
  Alcotest.(check (list (pair string (float 1e-9))))
    "interleaving" [ ("slow", 2.0); ("fast", 1.0) ] !log

(* A thread that delays but still wakes first resumes before anyone
   else runs; one that wakes at the same time as a queued thread runs
   after it. *)
let test_sched_earliest_delay_resumes () =
  let sched = Des.Sched.create () in
  let log = ref [] in
  let note what = log := (what, Des.Sched.now sched) :: !log in
  Des.Sched.spawn sched ~name:"a" (fun () ->
      note "a0";
      Des.Sched.delay 1.0;
      note "a1";
      Des.Sched.delay 1.0;
      note "a2";
      Des.Sched.delay 3.0;
      note "a3");
  Des.Sched.spawn sched ~name:"b" (fun () ->
      Des.Sched.delay 5.0;
      note "b");
  Des.Sched.run sched;
  Alcotest.(check (list (pair string (float 0.0))))
    "order"
    [ ("a0", 0.0); ("a1", 1.0); ("a2", 2.0); ("b", 5.0); ("a3", 5.0) ]
    (List.rev !log)

(* [abort_all] runs from the host between runs or from a running
   crasher, never while a thread that has just delayed waits for the
   run loop to take it up.  A crasher that aborts and then delays is
   the only thread left: it resumes, nothing else does, and a later
   [run] finds nothing. *)
let test_sched_abort_all_leaves_nothing () =
  let sched = Des.Sched.create () in
  let ran = ref [] in
  for i = 1 to 3 do
    Des.Sched.spawn sched ~name:(Printf.sprintf "t%d" i) (fun () ->
        Des.Sched.delay (float_of_int i);
        ran := i :: !ran)
  done;
  Des.Sched.spawn sched ~name:"crasher" (fun () ->
      Des.Sched.delay 0.5;
      Des.Sched.abort_all sched;
      Des.Sched.delay 10.0;
      ran := 0 :: !ran;
      Des.Sched.delay 1.0);
  Des.Sched.run sched;
  Alcotest.(check (list int)) "only the crasher resumed" [ 0 ] !ran;
  Alcotest.(check (float 0.0)) "clock" 11.5 (Des.Sched.now sched);
  Des.Sched.abort_all sched;
  Des.Sched.run sched;
  Alcotest.(check (list int)) "nothing left to resume" [ 0 ] !ran

let test_sched_charge_accumulates () =
  let sched = Des.Sched.create () in
  let finish = ref 0.0 in
  Des.Sched.spawn sched ~name:"t" (fun () ->
      Des.Sched.charge 0.5;
      Des.Sched.charge 0.25;
      Des.Sched.delay 1.0;
      finish := Des.Sched.now sched);
  Des.Sched.run sched;
  Alcotest.(check (float 1e-9)) "charge folded into delay" 1.75 !finish

let test_sched_outside_sim_noops () =
  Alcotest.(check bool) "not running" false (Des.Sched.running ());
  Des.Sched.delay 5.0;
  Des.Sched.charge 5.0;
  Alcotest.(check int) "id" (-1) (Des.Sched.current_id ());
  Alcotest.(check int) "numa" 0 (Des.Sched.current_numa ())

let test_sched_thread_identity () =
  let sched = Des.Sched.create () in
  let seen = ref [] in
  for i = 0 to 2 do
    Des.Sched.spawn sched ~numa:i ~name:(Printf.sprintf "t%d" i) (fun () ->
        seen :=
          (Des.Sched.current_id (), Des.Sched.current_numa (), Des.Sched.current_name ())
          :: !seen)
  done;
  Des.Sched.run sched;
  let sorted = List.sort compare !seen in
  Alcotest.(check (list (triple int int string)))
    "identities"
    [ (0, 0, "t0"); (1, 1, "t1"); (2, 2, "t2") ]
    sorted

let test_waitq_signal_all () =
  let sched = Des.Sched.create () in
  let wq = Des.Sched.Waitq.create () in
  let woken = ref 0 in
  for i = 1 to 3 do
    Des.Sched.spawn sched ~name:(Printf.sprintf "w%d" i) (fun () ->
        Des.Sched.Waitq.wait wq;
        incr woken)
  done;
  Des.Sched.spawn sched ~name:"signaller" (fun () ->
      Des.Sched.delay 1.0;
      Des.Sched.Waitq.signal_all sched wq);
  Des.Sched.run sched;
  Alcotest.(check int) "all woken" 3 !woken

let test_waitq_signal_one_fifo () =
  let sched = Des.Sched.create () in
  let wq = Des.Sched.Waitq.create () in
  let order = ref [] in
  for i = 1 to 2 do
    Des.Sched.spawn sched ~name:(Printf.sprintf "w%d" i) (fun () ->
        Des.Sched.Waitq.wait wq;
        order := i :: !order)
  done;
  Des.Sched.spawn sched ~name:"signaller" (fun () ->
      Des.Sched.delay 1.0;
      Des.Sched.Waitq.signal_one sched wq;
      Des.Sched.delay 1.0;
      Des.Sched.Waitq.signal_one sched wq);
  Des.Sched.run sched;
  Alcotest.(check (list int)) "fifo wakeups" [ 2; 1 ] !order

(* Two threads park for good and one between them finishes: the report
   lists the parked ones in spawn order, each with its latest wait, and
   leaves the finished one out. *)
let test_deadlock_detected () =
  let sched = Des.Sched.create () in
  let wq = Des.Sched.Waitq.create () in
  Des.Sched.spawn sched ~name:"stuck" (fun () -> Des.Sched.Waitq.wait wq);
  Des.Sched.spawn sched ~name:"done" (fun () -> Des.Sched.delay 1.0);
  Des.Sched.spawn sched ~name:"parked" (fun () ->
      Des.Sched.delay 0.5;
      Des.Sched.wait "lock" 64 ~attempt:0 Des.Sched.Now;
      Des.Sched.Waitq.wait wq);
  Alcotest.check_raises "blocked forever"
    (Des.Sched.Stalled
       "stalled at 1.000000000 s: 2 thread(s) blocked forever (missing signal?); live threads:\n\
       \  stuck (thread 0): no wait\n\
       \  parked (thread 2): lock 64 since 0.500000000 s, last try 0.500000000 s")
    (fun () -> Des.Sched.run sched)

let test_mutex_excludes () =
  let sched = Des.Sched.create () in
  let mutex = Des.Sync.Mutex.create () in
  let in_cs = ref 0 and max_in_cs = ref 0 and done_count = ref 0 in
  for i = 1 to 4 do
    Des.Sched.spawn sched ~name:(Printf.sprintf "t%d" i) (fun () ->
        Des.Sync.Mutex.with_lock mutex (fun () ->
            incr in_cs;
            if !in_cs > !max_in_cs then max_in_cs := !in_cs;
            Des.Sched.delay 1.0;
            decr in_cs);
        incr done_count)
  done;
  Des.Sched.run sched;
  Alcotest.(check int) "mutual exclusion" 1 !max_in_cs;
  Alcotest.(check int) "all completed" 4 !done_count;
  Alcotest.(check (float 1e-9)) "serialized time" 4.0 (Des.Sched.now sched)

let test_mutex_outside_sim () =
  let mutex = Des.Sync.Mutex.create () in
  let v = Des.Sync.Mutex.with_lock mutex (fun () -> 42) in
  Alcotest.(check int) "usable outside sim" 42 v;
  Alcotest.(check bool) "released" false (Des.Sync.Mutex.locked mutex)

let test_determinism () =
  let run () =
    let sched = Des.Sched.create () in
    let rng = Des.Rng.create ~seed:99L in
    let trace = Buffer.create 64 in
    for i = 0 to 4 do
      let rng = Des.Rng.split rng in
      Des.Sched.spawn sched ~name:(Printf.sprintf "t%d" i) (fun () ->
          for _ = 1 to 10 do
            Des.Sched.delay (Des.Rng.float rng);
            Buffer.add_string trace
              (Printf.sprintf "%d@%.6f;" (Des.Sched.current_id ())
                 (Des.Sched.now sched))
          done)
    done;
    Des.Sched.run sched;
    Buffer.contents trace
  in
  Alcotest.(check string) "identical traces" (run ()) (run ())

let suite =
  [
    Alcotest.test_case "event queue: ordering" `Quick test_event_queue_order;
    Alcotest.test_case "event queue: FIFO ties" `Quick test_event_queue_fifo_ties;
    Alcotest.test_case "event queue: 1000 random" `Quick test_event_queue_many;
    Alcotest.test_case "event queue: model with push_pop" `Quick test_event_queue_model;
    Alcotest.test_case "rng: deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng: golden outputs" `Quick test_rng_golden;
    Alcotest.test_case "rng: split independence" `Quick test_rng_split_independent;
    Alcotest.test_case "rng: int bounds" `Quick test_rng_int_bounds;
    Alcotest.test_case "rng: float bounds" `Quick test_rng_float_bounds;
    Alcotest.test_case "sched: delay ordering" `Quick test_sched_delays_order_threads;
    Alcotest.test_case "sched: earliest delayer resumes first" `Quick
      test_sched_earliest_delay_resumes;
    Alcotest.test_case "sched: abort_all leaves nothing" `Quick
      test_sched_abort_all_leaves_nothing;
    Alcotest.test_case "sched: charge accumulates" `Quick test_sched_charge_accumulates;
    Alcotest.test_case "sched: no-ops outside sim" `Quick test_sched_outside_sim_noops;
    Alcotest.test_case "sched: thread identity" `Quick test_sched_thread_identity;
    Alcotest.test_case "waitq: signal_all" `Quick test_waitq_signal_all;
    Alcotest.test_case "waitq: signal_one FIFO" `Quick test_waitq_signal_one_fifo;
    Alcotest.test_case "sched: deadlock detection" `Quick test_deadlock_detected;
    Alcotest.test_case "mutex: mutual exclusion" `Quick test_mutex_excludes;
    Alcotest.test_case "mutex: outside sim" `Quick test_mutex_outside_sim;
    Alcotest.test_case "sched: determinism" `Quick test_determinism;
  ]
