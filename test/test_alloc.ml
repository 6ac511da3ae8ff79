(* Allocation budgets of the simulator's hot path.

   Allocated words per simulated operation are deterministic, so they
   can be asserted exactly: the primitives every access, flush, fence
   and context switch goes through must allocate nothing, and the index
   operations built from them have fixed per-call ceilings.  The figures
   are those of the default (dev) build profile, which compiles every
   library opaquely, so no cross-module inlining removes an allocation
   behind these tests' backs; other profiles only allocate less (the
   release build the benchmark uses inlines the [@inline] hot paths,
   so a float passed to [Sched.delay], [Event_queue.add] or
   [Latency.record] is not boxed there).  This suite is its own
   executable so that no state left by other tests (installed
   recorders, sanitizers, grown tables) moves the counts. *)

module Machine = Nvm.Machine
module Pool = Nvm.Pool
module Sched = Des.Sched
module Event_queue = Des.Event_queue
module Node = Pactree.Data_node
module Tree = Pactree.Tree
module Key = Pactree.Key
module Latency = Workload.Latency

(* Minor words allocated by one call of [f]. *)
let words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

(* Mean minor words per call over [n] calls of [f]. *)
let words_per_call n f =
  words (fun () ->
      for i = 0 to n - 1 do
        f i
      done)
  /. float_of_int n

(* Run [f] inside a simulated thread, where charges and delays are
   real, and return its result. *)
let in_sim f =
  let sched = Sched.create () in
  let result = ref None in
  Sched.spawn sched ~name:"alloc" (fun () -> result := Some (f ()));
  Sched.run sched;
  Option.get !result

let check_zero what w = Alcotest.(check (float 0.0)) (what ^ " allocates nothing") 0.0 w

let check_ceiling what ceiling w =
  if w > ceiling then Alcotest.failf "%s: %.1f words per call, budget %.1f" what w ceiling

let test_measure_overhead () = check_zero "measuring an empty call" (words (fun () -> ()))

(* ---------- des ---------- *)

let test_event_queue () =
  let q = Event_queue.create ~dummy:(-1) () in
  (* grow the arrays to the peak size first *)
  for i = 0 to 63 do
    Event_queue.add q ~time:(float_of_int (i mod 7)) i
  done;
  let cycle _ =
    let v = Event_queue.pop_min q in
    Event_queue.add q ~time:3.0 v
  in
  cycle 0;
  check_zero "Event_queue.add + pop_min" (words_per_call 1000 cycle)

let test_sched_charge () =
  let w = in_sim (fun () -> words (fun () -> Sched.charge 1e-9)) in
  check_zero "Sched.charge" w

let test_sched_delay () =
  let w =
    in_sim (fun () ->
        Sched.delay 1e-9;
        words (fun () -> Sched.delay 1e-9))
  in
  check_ceiling "Sched.delay" 6.0 w

(* A thread parks on a wait queue and another wakes it, [cycles]
   times; the words of both sides and of the two context switches. *)
let test_waitq_cycle () =
  let cycles = 1000 in
  let sched = Sched.create () in
  let wq = Sched.Waitq.create () in
  let w = ref 0.0 in
  Sched.spawn sched ~name:"waiter" (fun () ->
      for _ = 0 to cycles do
        Sched.Waitq.wait wq
      done);
  Sched.spawn sched ~name:"waker" (fun () ->
      let cycle () =
        Sched.Waitq.signal_one sched wq;
        Sched.delay 0.0
      in
      cycle ();
      w := words_per_call cycles (fun _ -> cycle ()));
  Sched.run sched;
  check_ceiling "Waitq.wait + signal_one" 12.0 !w

(* ---------- nvm ---------- *)

let with_pool f =
  let machine = Machine.create ~numa_count:1 () in
  let pool = Pool.create machine ~name:"alloc" ~numa:0 ~capacity:(1 lsl 16) () in
  in_sim (fun () ->
      (* bring the lines into the CPU cache: a miss delays *)
      Pool.write_int pool 64 7;
      Pool.write_u8 pool 128 3;
      ignore (Pool.read_int pool 64 : int);
      ignore (Pool.read_u8 pool 128 : int);
      f pool)

let test_pool_accessors () =
  let read_int, write_int, read_u8 =
    with_pool (fun pool ->
        ( words (fun () -> ignore (Pool.read_int pool 64 : int)),
          words (fun () -> Pool.write_int pool 64 42),
          words (fun () -> ignore (Pool.read_u8 pool 128 : int)) ))
  in
  check_zero "Pool.read_int" read_int;
  check_zero "Pool.write_int" write_int;
  check_zero "Pool.read_u8" read_u8

(* Growing an image reallocates past the minor heap only, and a read
   wholly past the image allocates nothing.  Each access below misses
   the CPU cache, so each is held to the words of a store that misses
   inside the image. *)
let test_pool_growth () =
  let machine = Machine.create ~numa_count:1 () in
  let pool = Pool.create machine ~name:"grow" ~numa:0 ~capacity:Pool.max_capacity () in
  let far = 64 lsl 20 in
  let miss, grow, double, past =
    in_sim (fun () ->
        Pool.write_int pool 0 1;
        ( words (fun () -> Pool.write_int pool 4096 1),
          words (fun () -> Pool.write_int pool far 1),
          words (fun () -> Pool.write_int pool (far + (1 lsl 20)) 1),
          words (fun () -> ignore (Pool.read_int pool (1 lsl 39) : int)) ))
  in
  let check what w = Alcotest.(check (float 0.0)) (what ^ ": the words of a miss") miss w in
  check "a store that grows the image 64-fold" grow;
  check "a store that doubles the image" double;
  check "a read past the image" past

let test_clwb_fence () =
  let w =
    with_pool (fun pool ->
        let persist () =
          Pool.write_int pool 64 42;
          Pool.clwb pool 64;
          Pool.fence pool
        in
        persist ();
        words persist)
  in
  check_ceiling "write + clwb + fence" 20.0 w

(* Offset [0] and offset [far] share a slot of the direct-mapped CPU
   cache, so reading them in turn misses every time and goes to the
   device.  [far] is found through the slot function itself. *)
let test_cache_miss () =
  let machine = Machine.create ~numa_count:1 () in
  let slots = 1 lsl (Machine.profile machine).Nvm.Config.cache_slots_log2 in
  let pool = Pool.create machine ~name:"miss" ~numa:0 ~capacity:(2 * slots * 64) () in
  let rec colliding off =
    if off >= Pool.capacity pool then Alcotest.fail "no line shares the slot of line 0"
    else if Pool.cache_slot pool off = Pool.cache_slot pool 0 then off
    else colliding (off + 64)
  in
  let far = colliding 64 in
  let misses0 = (Machine.stats machine).Nvm.Stats.cache_misses in
  let w =
    in_sim (fun () ->
        let read i = ignore (Pool.read_int pool (if i land 1 = 0 then 0 else far) : int) in
        read 0;
        read 1;
        words_per_call 1000 read)
  in
  Alcotest.(check int) "every read missed" 1002
    ((Machine.stats machine).Nvm.Stats.cache_misses - misses0);
  check_ceiling "cache-missing Pool.read_int" 10.0 w

(* ---------- pmalloc ---------- *)

(* Every persistent-pointer dereference resolves its pool: an index
   into the machine's pool table. *)
let test_registry_resolve () =
  let machine = Machine.create ~numa_count:1 () in
  let pools =
    Array.init 3 (fun i -> Pool.create machine ~name:(string_of_int i) ~numa:0 ~capacity:256 ())
  in
  let ptrs = Array.map (fun p -> Pmalloc.Pptr.make ~pool:(Pool.id p) ~off:64) pools in
  let resolve i = ignore (Pmalloc.Registry.resolve machine ptrs.(i mod 3) : Pool.t) in
  resolve 0;
  check_zero "Registry.resolve" (words_per_call 3000 resolve)

(* ---------- workload ---------- *)

(* The first percentile sorts the samples; the second finds them
   sorted.  Both allocate only the box of their float result, so the
   sort allocates nothing. *)
let test_percentile_sort () =
  let l = Latency.create ~sample_rate:1.0 (Des.Rng.create ~seed:3L) in
  let rng = Des.Rng.create ~seed:4L in
  for _ = 1 to 20_000 do
    Latency.record l (Des.Rng.float rng)
  done;
  let sorting = words (fun () -> ignore (Latency.percentile l 99.0 : float)) in
  let sorted = words (fun () -> ignore (Latency.percentile l 99.0 : float)) in
  check_zero "sorting 20K samples" (sorting -. sorted);
  check_ceiling "a percentile of sorted samples" 2.0 sorted

(* ---------- pactree ---------- *)

let test_data_node_find () =
  let machine = Machine.create ~numa_count:1 () in
  let lay = Node.layout ~key_inline:8 () in
  let pool = Pool.create machine ~name:"node" ~numa:0 ~capacity:(1 lsl 16) () in
  let node = { Node.pool; off = 256 } in
  let keys = Array.init 48 (fun i -> Key.of_int (i * 3)) in
  let missing = Key.of_int 1000 in
  let w =
    in_sim (fun () ->
        Node.init lay node ~gen:1 ~anchor:"" ~next:Pmalloc.Pptr.null ~prev:Pmalloc.Pptr.null;
        Array.iteri (fun i k -> ignore (Node.insert lay node k i : Node.write_result)) keys;
        let probe () =
          ignore (Node.find lay node keys.(40) : int);
          ignore (Node.find lay node missing : int)
        in
        probe ();
        words probe)
  in
  check_zero "Data_node.find on a loaded node" w

(* The sorted-order primitive copies the keys into the thread's own
   buffer, created by the thread's first sort, and sorts slots there. *)
let test_data_node_sort () =
  let machine = Machine.create ~numa_count:1 () in
  let pool = Pool.create machine ~name:"node" ~numa:0 ~capacity:(1 lsl 16) () in
  let node = { Node.pool; off = 256 } in
  let sort lay keys =
    in_sim (fun () ->
        Node.init lay node ~gen:1 ~anchor:"" ~next:Pmalloc.Pptr.null ~prev:Pmalloc.Pptr.null;
        Array.iteri (fun i k -> ignore (Node.insert lay node k i : Node.write_result)) keys;
        let slots = Array.make Node.entries 0 in
        let sort () = ignore (Node.sort_live lay node slots : int) in
        sort ();
        words sort)
  in
  check_zero "Data_node.sort_live on a loaded int-key node"
    (sort (Node.layout ~key_inline:8 ()) (Array.init 48 (fun i -> Key.of_int (i * 7919 mod 1000))));
  check_zero "Data_node.sort_live on a loaded string-key node"
    (sort (Node.layout ~key_inline:32 ())
       (Array.init 48 (fun i -> Key.of_string (string_of_int (i * 7919 mod 1000)))))

let tree_cfg = { Tree.default_config with Tree.data_capacity = 1 lsl 22; search_capacity = 1 lsl 21 }

let loaded = 4000

let test_tree_ops () =
  let machine = Machine.create ~numa_count:2 () in
  let tree = Tree.create machine ~cfg:tree_cfg () in
  let keys = Array.init (2 * loaded) (fun i -> Key.of_int (i * 7919 mod 100_003)) in
  let sched = Sched.create () in
  (* the background updater replays splits into the search layer *)
  Sched.spawn sched ~name:"updater" (fun () -> Tree.updater_loop tree);
  let lookup = ref 0.0 and insert = ref 0.0 in
  Sched.spawn sched ~name:"client" (fun () ->
      for i = 0 to loaded - 1 do
        Tree.insert tree keys.(i) i
      done;
      lookup := words_per_call loaded (fun i -> ignore (Tree.lookup tree keys.(i) : int option));
      insert := words_per_call loaded (fun i -> Tree.insert tree keys.(loaded + i) i);
      Tree.request_shutdown tree);
  Sched.run sched;
  let lookup = !lookup and insert = !insert in
  check_ceiling "Tree.lookup" 21.0 lookup;
  check_ceiling "Tree.insert of a fresh key" 98.0 insert

(* One [Tree.insert] that splits a full data node: the split's sort,
   log entry, new node, the anchor key (the one key it allocates) and
   the queued search-layer update, without the replay (no updater
   runs).  The second split is measured: the first creates the
   thread's sort buffer. *)
let test_tree_split () =
  let machine = Machine.create ~numa_count:1 () in
  let tree = Tree.create machine ~cfg:tree_cfg () in
  let w =
    in_sim (fun () ->
        let next = ref 0 in
        let insert () =
          Tree.insert tree (Key.of_int !next) !next;
          incr next
        in
        let rec until_split () =
          let splits = (Tree.stats tree).Tree.splits in
          let w = words insert in
          if (Tree.stats tree).Tree.splits > splits then w else until_split ()
        in
        ignore (until_split () : float);
        until_split ())
  in
  check_ceiling "Tree.insert that splits a full node" 638.0 w

(* ---------- line reads ---------- *)

(* Charged line reads per lookup on a loaded index: every access to a
   line is charged once, as a CPU-cache hit or a miss, so the
   hit + miss delta counts the lines an operation reads.  A node visit
   reads each of its lines once (a header copy, then only the child
   pointer or entry it needs, then one validation); a change that
   reads a header field again moves these figures.  They are exact:
   re-pin them when a change is meant to move them. *)

let line_reads machine =
  let s = Machine.stats machine in
  s.Nvm.Stats.cache_hits + s.Nvm.Stats.cache_misses

(* Mean line reads per call of [f] over [n] calls. *)
let reads_per_call machine n f =
  let r0 = line_reads machine in
  for i = 0 to n - 1 do
    f i
  done;
  float_of_int (line_reads machine - r0) /. float_of_int n

let check_reads what pinned got =
  if Float.abs (got -. pinned) > 1e-4 then
    Alcotest.failf "%s: %.4f line reads per call, pinned at %.4f" what got pinned

let read_keys = 20_000

let read_key i = Key.of_int (i * 7919 mod 100_003)

let test_tree_line_reads () =
  let machine = Machine.create ~numa_count:2 () in
  let tree = Tree.create machine ~cfg:tree_cfg () in
  let sched = Sched.create () in
  Sched.spawn sched ~name:"updater" (fun () -> Tree.updater_loop tree);
  let reads = ref 0.0 in
  Sched.spawn sched ~name:"client" (fun () ->
      for i = 0 to read_keys - 1 do
        Tree.insert tree (read_key i) i
      done;
      (* let the updater bring the search layer up to date *)
      Sched.delay 1e-3;
      reads :=
        reads_per_call machine read_keys (fun i ->
            ignore (Tree.lookup tree (read_key i) : int option));
      Tree.request_shutdown tree);
  Sched.run sched;
  check_reads "Tree.lookup" 18.7664 !reads

let test_pdlart_line_reads () =
  let machine = Machine.create ~numa_count:2 () in
  let index = Baselines.Pdlart.create machine () in
  let reads =
    in_sim (fun () ->
        for i = 0 to read_keys - 1 do
          Baselines.Pdlart.insert index (read_key i) i
        done;
        reads_per_call machine read_keys (fun i ->
            ignore (Baselines.Pdlart.lookup index (read_key i) : int option)))
  in
  check_reads "PDL-ART lookup" 13.0016 reads

(* ---------- resident pool bytes ---------- *)

(* Host bytes held by every pool image of each system after a 20K-key
   preload on two sockets.  Images grow with the data they hold; these
   are ceilings, never to be raised. *)
let test_resident_bytes () =
  List.iter
    (fun (sys, ceiling) ->
      let machine = Machine.create ~numa_count:2 () in
      let b = Experiments.Factory.make_backend machine sys in
      ignore
        (Workload.Runner.load ~machine ~index:b.b_index ?service:b.b_service
           ~kind:Workload.Keyset.Int_keys ~loaded:20_000 ~threads:8 ()
          : float);
      let resident =
        List.fold_left (fun acc p -> acc + Pool.resident_bytes p) 0 (Pool.all machine)
      in
      if resident > ceiling then
        Alcotest.failf "%s: %d resident pool bytes, ceiling %d"
          (Experiments.Factory.name sys) resident ceiling)
    [
      (Experiments.Factory.Pactree_sys, 3_402_532);
      (Experiments.Factory.Pdlart_sys, 4_525_384);
      (Experiments.Factory.Bztree_sys, 9_049_124);
      (Experiments.Factory.Fastfair_sys, 2_245_156);
      (Experiments.Factory.Fptree_sys, 2_245_156);
    ]

(* ---------- svc ---------- *)

(* Whole-run words per request of an open-loop run into a 2-shard
   PACTree store: generation, routing, queueing, the index operation
   and the latency records. *)
let test_engine_request () =
  let cfg =
    {
      (Experiments.Svc_run.default ~quick:true Experiments.Factory.Pactree_sys) with
      Experiments.Svc_run.shards = 2;
      keys = 4_000;
      ops = 4_000;
    }
  in
  let store = Experiments.Svc_run.make_store cfg in
  let start = Svc.Engine.load ~store ~kind:cfg.Experiments.Svc_run.kind ~keys:4_000 () in
  let config = Experiments.Svc_run.engine_config cfg ~rate:1e6 in
  let r = ref None in
  let w = words (fun () -> r := Some (Svc.Engine.run ~store ~config ~start ())) in
  let r = Option.get !r in
  Alcotest.(check int) "every request completed" 4_000 r.Svc.Engine.r_completed;
  check_ceiling "Engine.run per request" 171.0 (w /. 4_000.0)

let () =
  Alcotest.run "alloc"
    [
      ( "budgets",
        [
          Alcotest.test_case "measuring overhead" `Quick test_measure_overhead;
          Alcotest.test_case "event queue add + pop" `Quick test_event_queue;
          Alcotest.test_case "sched charge" `Quick test_sched_charge;
          Alcotest.test_case "sched delay" `Quick test_sched_delay;
          Alcotest.test_case "waitq wait + signal_one" `Quick test_waitq_cycle;
          Alcotest.test_case "pool accessors" `Quick test_pool_accessors;
          Alcotest.test_case "cache-missing read" `Quick test_cache_miss;
          Alcotest.test_case "pool growth" `Quick test_pool_growth;
          Alcotest.test_case "clwb + fence" `Quick test_clwb_fence;
          Alcotest.test_case "registry resolve" `Quick test_registry_resolve;
          Alcotest.test_case "percentile sort" `Quick test_percentile_sort;
          Alcotest.test_case "data node find" `Quick test_data_node_find;
          Alcotest.test_case "data node sort" `Quick test_data_node_sort;
          Alcotest.test_case "tree lookup + insert" `Quick test_tree_ops;
          Alcotest.test_case "tree insert that splits" `Quick test_tree_split;
          Alcotest.test_case "engine per request" `Quick test_engine_request;
          Alcotest.test_case "tree lookup line reads" `Quick test_tree_line_reads;
          Alcotest.test_case "pdlart lookup line reads" `Quick test_pdlart_line_reads;
          Alcotest.test_case "resident pool bytes" `Quick test_resident_bytes;
        ] );
    ]
