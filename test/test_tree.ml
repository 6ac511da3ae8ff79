(* Tests for the full PACTree index: correctness, concurrency,
   asynchronous SMO behaviour, crash recovery, all config variants. *)

module Machine = Nvm.Machine
module Key = Pactree.Key
module Tree = Pactree.Tree

let small_cfg =
  {
    Tree.default_config with
    Tree.data_capacity = 1 lsl 22;
    search_capacity = 1 lsl 21;
  }

let make_tree ?(cfg = small_cfg) () =
  let machine = Machine.create ~numa_count:2 () in
  (machine, Tree.create machine ~cfg ())

let ik = Key.of_int

let test_empty_lookup () =
  let _, t = make_tree () in
  Alcotest.(check (option int)) "miss" None (Tree.lookup t (ik 1));
  Alcotest.(check int) "one head node" 1 (Tree.check_invariants t)

let test_insert_lookup_basic () =
  let _, t = make_tree () in
  Tree.insert t (ik 1) 100;
  Tree.insert t (ik 2) 200;
  Tree.insert t (ik 3) 300;
  Alcotest.(check (option int)) "k1" (Some 100) (Tree.lookup t (ik 1));
  Alcotest.(check (option int)) "k2" (Some 200) (Tree.lookup t (ik 2));
  Alcotest.(check (option int)) "k3" (Some 300) (Tree.lookup t (ik 3));
  Alcotest.(check (option int)) "miss" None (Tree.lookup t (ik 4))

let test_upsert_semantics () =
  let _, t = make_tree () in
  Tree.insert t (ik 7) 1;
  Tree.insert t (ik 7) 2;
  Alcotest.(check (option int)) "updated" (Some 2) (Tree.lookup t (ik 7));
  Alcotest.(check int) "no duplicate" 1 (Tree.cardinal t)

let test_update_only_existing () =
  let _, t = make_tree () in
  Tree.insert t (ik 1) 10;
  Alcotest.(check bool) "existing" true (Tree.update t (ik 1) 11);
  Alcotest.(check bool) "missing" false (Tree.update t (ik 2) 22);
  Alcotest.(check (option int)) "new value" (Some 11) (Tree.lookup t (ik 1));
  Alcotest.(check (option int)) "not created" None (Tree.lookup t (ik 2))

let test_delete () =
  let _, t = make_tree () in
  Tree.insert t (ik 1) 10;
  Tree.insert t (ik 2) 20;
  Alcotest.(check bool) "delete hit" true (Tree.delete t (ik 1));
  Alcotest.(check bool) "delete miss" false (Tree.delete t (ik 1));
  Alcotest.(check (option int)) "gone" None (Tree.lookup t (ik 1));
  Alcotest.(check (option int)) "kept" (Some 20) (Tree.lookup t (ik 2))

let test_splits_many_keys () =
  let _, t = make_tree () in
  let n = 5000 in
  for i = 0 to n - 1 do
    Tree.insert t (ik i) (i * 2)
  done;
  Tree.drain_smo t;
  for i = 0 to n - 1 do
    match Tree.lookup t (ik i) with
    | Some v when v = i * 2 -> ()
    | Some v -> Alcotest.failf "key %d has value %d" i v
    | None -> Alcotest.failf "key %d missing" i
  done;
  Alcotest.(check bool) "many splits happened" true ((Tree.stats t).Tree.splits > 50);
  let nodes = Tree.check_invariants t in
  Alcotest.(check bool) "many nodes" true (nodes > 50);
  Alcotest.(check int) "cardinal" n (Tree.cardinal t)

(* A writer's spare data node (DESIGN §6), in a simulation with no
   updater running (a split only queues its search-layer update): the
   first insert fills the thread's empty spare slot (one allocation,
   the allocator's four fences, then the insert's two); a split whose
   thread holds its spare makes no allocator call and only its own five
   fences (the log entry's two, the new node's, the link's, the bitmap
   clear's), and the next insert refills the slot. *)
let test_split_takes_spare () =
  let machine, t = make_tree () in
  let allocs () = (Pmalloc.Heap.stats (Tree.data_heap t)).Pmalloc.Heap.allocs in
  let fences () = (Machine.stats machine).Nvm.Stats.fences in
  let splits () = (Tree.stats t).Tree.splits in
  let costs = ref [] in
  let sched = Des.Sched.create () in
  Des.Sched.spawn sched ~name:"writer" (fun () ->
      for k = 0 to 65 do
        let a = allocs () and f = fences () and s = splits () in
        Tree.insert t (ik k) k;
        costs := (k, (allocs () - a, fences () - f, splits () - s)) :: !costs
      done);
  Des.Sched.run sched;
  let cost k = List.assoc k !costs in
  let triple = Alcotest.(triple int int int) in
  Alcotest.check triple "first insert: refill" (1, 6, 0) (cost 0);
  for k = 1 to 63 do
    Alcotest.check triple (Printf.sprintf "insert %d" k) (0, 2, 0) (cost k)
  done;
  Alcotest.check triple "split: no allocation, its own fences" (0, 5, 1) (cost 64);
  Alcotest.check triple "next insert: refill" (1, 6, 0) (cost 65);
  ignore (Tree.check_invariants t)

(* Writers whose thread ids agree modulo [Smo_log.max_writers] share
   a ring and its spare slot: the second refill of the empty slot,
   while the first waits for the allocator, fails clearly instead of
   losing a node.  The threads between the two only exit. *)
let test_shared_spare_slot_fails () =
  let _, t = make_tree () in
  let sched = Des.Sched.create () in
  for i = 0 to Pactree.Smo_log.max_writers do
    Des.Sched.spawn sched ~name:"writer" (fun () ->
        if i = 0 || i = Pactree.Smo_log.max_writers then Tree.insert t (ik i) i)
  done;
  match Des.Sched.run sched with
  | () -> Alcotest.fail "two writers refilled one spare slot"
  | exception Failure m ->
      Alcotest.(check bool) ("a clear failure: " ^ m) true
        (String.starts_with ~prefix:"Smo_log: two writer threads share a spare slot" m)

let test_random_order_inserts () =
  let _, t = make_tree () in
  let rng = Des.Rng.create ~seed:9L in
  let model = Hashtbl.create 1024 in
  for _ = 0 to 4999 do
    let k = Des.Rng.int rng 1_000_000 in
    let v = Des.Rng.int rng 1_000_000 in
    Tree.insert t (ik k) v;
    Hashtbl.replace model k v
  done;
  Tree.drain_smo t;
  ignore (Tree.check_invariants t);
  Hashtbl.iter
    (fun k v ->
      match Tree.lookup t (ik k) with
      | Some v' when v' = v -> ()
      | _ -> Alcotest.failf "key %d wrong" k)
    model;
  Alcotest.(check int) "cardinal" (Hashtbl.length model) (Tree.cardinal t)

let test_deletes_trigger_merges () =
  let _, t = make_tree () in
  let n = 3000 in
  for i = 0 to n - 1 do
    Tree.insert t (ik i) i
  done;
  for i = 0 to n - 1 do
    if i mod 10 <> 0 then ignore (Tree.delete t (ik i))
  done;
  Tree.drain_smo t;
  Alcotest.(check bool) "merges happened" true ((Tree.stats t).Tree.merges > 5);
  ignore (Tree.check_invariants t);
  for i = 0 to n - 1 do
    let expect = if i mod 10 = 0 then Some i else None in
    if Tree.lookup t (ik i) <> expect then Alcotest.failf "key %d wrong" i
  done

let test_scan_basic () =
  let _, t = make_tree () in
  for i = 0 to 999 do
    Tree.insert t (ik (i * 2)) i
  done;
  Tree.drain_smo t;
  let r = Tree.scan t (ik 100) 10 in
  Alcotest.(check (list int)) "keys"
    [ 100; 102; 104; 106; 108; 110; 112; 114; 116; 118 ]
    (List.map (fun (k, _) -> Key.to_int k) r);
  Alcotest.(check (list int)) "values" [ 50; 51; 52; 53; 54; 55; 56; 57; 58; 59 ]
    (List.map snd r);
  (* scan from between keys *)
  let r = Tree.scan t (ik 101) 3 in
  Alcotest.(check (list int)) "from gap" [ 102; 104; 106 ]
    (List.map (fun (k, _) -> Key.to_int k) r);
  (* scan past the end *)
  let r = Tree.scan t (ik 1990) 100 in
  Alcotest.(check int) "tail scan" 5 (List.length r);
  (* scan across many nodes *)
  let r = Tree.scan t (ik 0) 500 in
  Alcotest.(check int) "long scan" 500 (List.length r)

let test_scan_empty_and_before_first () =
  let _, t = make_tree () in
  Alcotest.(check int) "empty tree" 0 (List.length (Tree.scan t (ik 0) 10));
  Tree.insert t (ik 100) 1;
  let r = Tree.scan t (ik 0) 10 in
  Alcotest.(check int) "before first key" 1 (List.length r)

let test_string_keys () =
  let cfg = { small_cfg with Tree.key_inline = 32 } in
  let _, t = make_tree ~cfg () in
  let words =
    [ "apple"; "apricot"; "banana"; "blueberry"; "cherry"; "date"; "elderberry" ]
  in
  List.iteri (fun i w -> Tree.insert t (Key.of_string w) i) words;
  List.iteri
    (fun i w ->
      Alcotest.(check (option int)) w (Some i) (Tree.lookup t (Key.of_string w)))
    words;
  let r = Tree.scan t (Key.of_string "b") 3 in
  Alcotest.(check (list string)) "scan strings" [ "banana"; "blueberry"; "cherry" ]
    (List.map fst r)

let test_string_keys_many () =
  let cfg = { small_cfg with Tree.key_inline = 32 } in
  let _, t = make_tree ~cfg () in
  let n = 3000 in
  for i = 0 to n - 1 do
    Tree.insert t (Key.of_string (Printf.sprintf "user%08d" (i * 37 mod n))) i
  done;
  Tree.drain_smo t;
  ignore (Tree.check_invariants t);
  Alcotest.(check int) "cardinal" n (Tree.cardinal t)

let test_qcheck_model =
  QCheck.Test.make ~name:"tree: agrees with a map model" ~count:20
    QCheck.(list (triple (int_bound 300) (int_bound 1000) (int_bound 3)))
    (fun ops ->
      let _, t = make_tree () in
      let model = Hashtbl.create 64 in
      List.iter
        (fun (k, v, op) ->
          match op with
          | 0 | 1 ->
              Tree.insert t (ik k) v;
              Hashtbl.replace model k v
          | 2 ->
              let was = Tree.delete t (ik k) in
              if was <> Hashtbl.mem model k then raise Exit;
              Hashtbl.remove model k
          | _ ->
              let got = Tree.lookup t (ik k) in
              if got <> Hashtbl.find_opt model k then raise Exit)
        ops;
      Tree.drain_smo t;
      ignore (Tree.check_invariants t);
      Hashtbl.fold (fun k v ok -> ok && Tree.lookup t (ik k) = Some v) model true
      && Tree.cardinal t = Hashtbl.length model)

let test_qcheck_scan_model =
  QCheck.Test.make ~name:"tree: scans agree with a sorted model" ~count:15
    QCheck.(pair (list (int_bound 2000)) (list (pair (int_bound 2100) (int_bound 60))))
    (fun (keys, scans) ->
      let _, t = make_tree () in
      let model = List.sort_uniq compare keys in
      List.iter (fun k -> Tree.insert t (ik k) (k * 7)) keys;
      Tree.drain_smo t;
      List.for_all
        (fun (from, n) ->
          let expected =
            List.filteri (fun i _ -> i < n)
              (List.filter (fun k -> k >= from) model)
          in
          let got = List.map (fun (k, v) -> (Key.to_int k, v)) (Tree.scan t (ik from) n) in
          got = List.map (fun k -> (k, k * 7)) expected)
        scans)

(* ---------- concurrency ---------- *)

let run_concurrent ?(with_updater = true) t threads body =
  let sched = Des.Sched.create () in
  if with_updater then
    Des.Sched.spawn sched ~name:"updater" (fun () -> Tree.updater_loop t);
  let live = ref threads in
  for i = 0 to threads - 1 do
    Des.Sched.spawn sched ~numa:(i mod 2) ~name:(Printf.sprintf "w%d" i) (fun () ->
        body i;
        decr live;
        if !live = 0 && with_updater then Tree.request_shutdown t)
  done;
  Des.Sched.run sched

let test_concurrent_disjoint_inserts () =
  let _, t = make_tree () in
  let threads = 8 and per = 400 in
  run_concurrent t threads (fun i ->
      for j = 0 to per - 1 do
        Tree.insert t (ik ((j * threads) + i)) ((j * threads) + i)
      done);
  ignore (Tree.check_invariants t);
  Alcotest.(check int) "all present" (threads * per) (Tree.cardinal t);
  for k = 0 to (threads * per) - 1 do
    if Tree.lookup t (ik k) <> Some k then Alcotest.failf "key %d wrong" k
  done

let test_concurrent_readers_never_miss () =
  let _, t = make_tree () in
  for i = 0 to 999 do
    Tree.insert t (ik (i * 2)) i
  done;
  let misses = ref 0 in
  let _, _ = (0, 0) in
  let sched = Des.Sched.create () in
  Des.Sched.spawn sched ~name:"updater" (fun () -> Tree.updater_loop t);
  let writers = 4 and readers = 4 in
  let live = ref (writers + readers) in
  let finish () =
    decr live;
    if !live = 0 then Tree.request_shutdown t
  in
  for i = 0 to writers - 1 do
    Des.Sched.spawn sched ~numa:(i mod 2) ~name:(Printf.sprintf "ins%d" i) (fun () ->
        for j = 0 to 249 do
          Tree.insert t (ik ((((i * 250) + j) * 2) + 1)) j
        done;
        finish ())
  done;
  for i = 0 to readers - 1 do
    Des.Sched.spawn sched ~numa:(i mod 2) ~name:(Printf.sprintf "rd%d" i) (fun () ->
        let rng = Des.Rng.create ~seed:(Int64.of_int (i + 1)) in
        for _ = 0 to 999 do
          let k = Des.Rng.int rng 1000 * 2 in
          if Tree.lookup t (ik k) = None then incr misses
        done;
        finish ())
  done;
  Des.Sched.run sched;
  Alcotest.(check int) "preloaded keys always visible" 0 !misses;
  ignore (Tree.check_invariants t);
  Alcotest.(check int) "cardinal" 2000 (Tree.cardinal t)

let test_concurrent_mixed_with_deletes () =
  let _, t = make_tree () in
  for i = 0 to 1999 do
    Tree.insert t (ik i) i
  done;
  run_concurrent t 6 (fun i ->
      let rng = Des.Rng.create ~seed:(Int64.of_int (100 + i)) in
      for _ = 0 to 499 do
        let k = Des.Rng.int rng 2000 in
        match Des.Rng.int rng 3 with
        | 0 -> Tree.insert t (ik k) k
        | 1 -> ignore (Tree.delete t (ik k))
        | _ -> ignore (Tree.lookup t (ik k))
      done);
  ignore (Tree.check_invariants t)

(* Lookups racing splits and merges, checked against a model map.
   The even keys of [0, 6000) are preloaded with value [10 k].  Keys
   [k mod 6 = 0] are never written, so every lookup of one must return
   its value.  Writer [w] owns the other keys from [1500 w] up to
   [1500 (w + 1)]: it deletes its even keys, which empties nodes into
   merges, inserts the odd ones, which splits nodes, then deletes a
   quarter of those, keeping its part of the model.  Four readers look
   up random keys until the writers are done.  A lookup of a churned
   key may find it or not, but a value it returns must be the key's
   own. *)
let test_lookups_race_smo () =
  let _, t = make_tree () in
  let n = 6000 and writers = 4 in
  let value k = 10 * k in
  let model = Hashtbl.create n in
  for k = 0 to (n / 2) - 1 do
    Tree.insert t (ik (2 * k)) (value (2 * k));
    Hashtbl.replace model (2 * k) (value (2 * k))
  done;
  let splits0 = (Tree.stats t).Tree.splits and merges0 = (Tree.stats t).Tree.merges in
  let lost = ref 0 and wrong = ref 0 and lookups = ref 0 and writing = ref writers in
  run_concurrent t 8 (fun i ->
      if i < writers then begin
        let per = n / writers in
        let each f =
          for k = i * per to ((i + 1) * per) - 1 do
            if k mod 6 <> 0 then f k
          done
        in
        let delete k =
          ignore (Tree.delete t (ik k));
          Hashtbl.remove model k
        in
        each (fun k -> if k mod 2 = 0 then delete k);
        each (fun k ->
            if k mod 2 = 1 then begin
              Tree.insert t (ik k) (value k);
              Hashtbl.replace model k (value k)
            end);
        each (fun k -> if k mod 4 = 1 then delete k);
        decr writing
      end
      else begin
        (* look up until every writer is done *)
        let rng = Des.Rng.create ~seed:(Int64.of_int (31 * i)) in
        while !writing > 0 do
          let k = Des.Rng.int rng n in
          incr lookups;
          match Tree.lookup t (ik k) with
          | Some v when v <> value k -> incr wrong
          | None when k mod 6 = 0 -> incr lost
          | Some _ | None -> ()
        done
      end);
  Alcotest.(check bool) "lookups ran" true (!lookups > 1000);
  Alcotest.(check int) "stable keys never missed" 0 !lost;
  Alcotest.(check int) "no wrong value" 0 !wrong;
  Alcotest.(check bool) "lookups raced merges" true ((Tree.stats t).Tree.merges > merges0);
  Alcotest.(check bool) "and splits" true ((Tree.stats t).Tree.splits > splits0);
  ignore (Tree.check_invariants t);
  let expected = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) model []) in
  Alcotest.(check (list (pair int int))) "contents match the model" expected
    (List.map (fun (k, v) -> (Key.to_int k, v)) (Tree.to_list t))

let test_concurrent_scans () =
  let _, t = make_tree () in
  for i = 0 to 1999 do
    Tree.insert t (ik i) i
  done;
  let bad_scans = ref 0 in
  run_concurrent t 6 (fun i ->
      if i < 3 then (* writers *)
        for j = 0 to 299 do
          Tree.insert t (ik (2000 + (i * 300) + j)) j
        done
      else
        (* scanners: results must always be sorted and within range *)
        let rng = Des.Rng.create ~seed:(Int64.of_int (i * 7)) in
        for _ = 0 to 99 do
          let from = Des.Rng.int rng 1900 in
          let r = Tree.scan t (ik from) 50 in
          let keys = List.map (fun (k, _) -> Key.to_int k) r in
          let sorted = List.sort compare keys in
          if keys <> sorted || List.exists (fun k -> k < from) keys then incr bad_scans
        done);
  Alcotest.(check int) "scans always sorted, in-range" 0 !bad_scans;
  ignore (Tree.check_invariants t)

let test_async_updater_catches_up () =
  let _, t = make_tree () in
  run_concurrent t 4 (fun i ->
      for j = 0 to 999 do
        Tree.insert t (ik ((j * 4) + i)) j
      done);
  (* after shutdown handshake the backlog must be empty *)
  Alcotest.(check int) "smo backlog drained" 0 (Tree.smo_backlog t);
  ignore (Tree.check_invariants t)

(* The updater consumes the shutdown request it exits on, so a second
   round with its own updater on the same tree replays that round's
   SMO entries too. *)
let test_second_updater_runs () =
  let _, t = make_tree () in
  let per = 300 in
  for round = 0 to 1 do
    run_concurrent t 4 (fun i ->
        for j = 0 to per - 1 do
          let k = (round * 4 * per) + (j * 4) + i in
          Tree.insert t (ik k) k
        done)
  done;
  Alcotest.(check int) "smo backlog drained" 0 (Tree.smo_backlog t);
  ignore (Tree.check_invariants t);
  Alcotest.(check int) "all present" (2 * 4 * per) (Tree.cardinal t)

(* A thread pins the epoch long enough for the updater to block on its
   full pending log (its slots come back only when the epoch advances)
   and for two writers inserting ascending keys to fill their SMO
   rings.  A writer must wait for ring space unpinned and unlocked, or
   the epoch can never advance once the pin is gone: every writer
   waits on the updater and the updater on the writers. *)
let test_full_rings_epoch_held () =
  let _, t = make_tree () in
  let per = 4000 in
  run_concurrent t 3 (fun i ->
      if i = 0 then begin
        Pactree.Epoch.enter (Tree.epoch t);
        Des.Sched.delay 0.05;
        Pactree.Epoch.exit (Tree.epoch t)
      end
      else
        for j = 0 to per - 1 do
          Tree.insert t (ik ((i * 1_000_000) + j)) j
        done);
  Alcotest.(check bool) "the rings filled" true ((Tree.stats t).Tree.splits > 2 * 64);
  Alcotest.(check int) "smo backlog drained" 0 (Tree.smo_backlog t);
  ignore (Tree.check_invariants t);
  Alcotest.(check int) "all present" (2 * per) (Tree.cardinal t)

let test_jump_histogram_populated () =
  let _, t = make_tree () in
  (* without an updater running and async mode on... entries replay
     synchronously; use a sim with a *slow* updater to observe hops *)
  let sched = Des.Sched.create () in
  Des.Sched.spawn sched ~name:"updater" (fun () -> Tree.updater_loop t);
  Des.Sched.spawn sched ~name:"writer" (fun () ->
      for i = 0 to 4999 do
        Tree.insert t (ik i) i
      done;
      Tree.request_shutdown t);
  Des.Sched.run sched;
  let hist = Tree.jump_histogram t in
  let total = Array.fold_left ( + ) 0 hist in
  Alcotest.(check bool) "histogram populated" true (total > 0);
  Alcotest.(check bool) "mostly direct hits" true (float_of_int hist.(0) > 0.5 *. float_of_int total)

(* ---------- configuration variants (Fig 12 ablations) ---------- *)

let exercise_variant cfg =
  let _, t = make_tree ~cfg () in
  let n = 2000 in
  for i = 0 to n - 1 do
    Tree.insert t (ik i) i
  done;
  for i = 0 to (n / 2) - 1 do
    ignore (Tree.delete t (ik (i * 2)))
  done;
  Tree.drain_smo t;
  ignore (Tree.check_invariants t);
  for i = 0 to n - 1 do
    let expect = if i mod 2 = 0 && i < n then if i < n then None else None else Some i in
    let expect = if i mod 2 = 1 then Some i else expect in
    if Tree.lookup t (ik i) <> expect then Alcotest.failf "variant: key %d wrong" i
  done;
  let r = Tree.scan t (ik 0) 100 in
  Alcotest.(check int) "scan works" 100 (List.length r)

let test_variant_sync_smo () =
  exercise_variant { small_cfg with Tree.async_smo = false }

let test_variant_no_selective_persistence () =
  exercise_variant { small_cfg with Tree.selective_persistence = false }

let test_variant_dram_search_layer () =
  exercise_variant { small_cfg with Tree.search_layer_dram = true }

(* ---------- crash recovery (§6.8) ---------- *)

let test_recovery_simple () =
  let machine, t = make_tree () in
  let n = 3000 in
  for i = 0 to n - 1 do
    Tree.insert t (ik i) i
  done;
  Machine.crash machine Machine.Strict;
  ignore (Tree.recover t);
  ignore (Tree.check_invariants t);
  for i = 0 to n - 1 do
    if Tree.lookup t (ik i) <> Some i then Alcotest.failf "key %d lost" i
  done;
  (* still writable after recovery *)
  Tree.insert t (ik 999999) 42;
  Alcotest.(check (option int)) "post-recovery insert" (Some 42)
    (Tree.lookup t (ik 999999))

let test_recovery_with_pending_smo () =
  (* Crash while SMO log entries are still unreplayed (no updater
     thread runs in this sim): recovery must finish them. *)
  let machine, t = make_tree () in
  let n = 1500 in
  let sched = Des.Sched.create () in
  Des.Sched.spawn sched ~name:"writer" (fun () ->
      for i = 0 to n - 1 do
        Tree.insert t (ik i) i
      done);
  Des.Sched.run sched;
  Alcotest.(check bool) "entries pending" true (Tree.smo_backlog t > 0);
  Machine.crash machine Machine.Strict;
  let replayed = Tree.recover t in
  Alcotest.(check bool) "recovery replayed entries" true (replayed > 0);
  Alcotest.(check int) "backlog clear" 0 (Tree.smo_backlog t);
  ignore (Tree.check_invariants t);
  for i = 0 to n - 1 do
    if Tree.lookup t (ik i) <> Some i then Alcotest.failf "key %d lost" i
  done

let test_recovery_dram_search_layer () =
  let cfg = { small_cfg with Tree.search_layer_dram = true } in
  let machine, t = make_tree ~cfg () in
  for i = 0 to 1999 do
    Tree.insert t (ik i) i
  done;
  Machine.crash machine Machine.Strict;
  ignore (Tree.recover t);
  Tree.drain_smo t;
  ignore (Tree.check_invariants t);
  for i = 0 to 1999 do
    if Tree.lookup t (ik i) <> Some i then Alcotest.failf "key %d lost" i
  done

let test_recovery_repeated_crashes () =
  (* The paper's §6.8 experiment: crash and recover many times, with
     work in between; nothing acknowledged may ever be lost. *)
  let machine, t = make_tree () in
  let rng = Des.Rng.create ~seed:31L in
  let model = Hashtbl.create 1024 in
  for round = 0 to 19 do
    for _ = 0 to 199 do
      let k = Des.Rng.int rng 10_000 in
      if Des.Rng.int rng 4 = 0 then begin
        ignore (Tree.delete t (ik k));
        Hashtbl.remove model k
      end
      else begin
        Tree.insert t (ik k) (k + round);
        Hashtbl.replace model k (k + round)
      end
    done;
    Machine.crash machine Machine.Strict;
    ignore (Tree.recover t);
    ignore (Tree.check_invariants t);
    Hashtbl.iter
      (fun k v ->
        match Tree.lookup t (ik k) with
        | Some v' when v' = v -> ()
        | Some v' -> Alcotest.failf "round %d: key %d = %d, want %d" round k v' v
        | None -> Alcotest.failf "round %d: key %d lost" round k)
      model
  done

let test_recovery_mid_concurrent_run () =
  (* Crash (SIGKILL semantics: all threads die instantly) at an
     arbitrary instant of a concurrent run.  Durable linearizability:
     every insert acknowledged before the crash must survive. *)
  let machine, t = make_tree () in
  let acked = Hashtbl.create 1024 in
  let sched = Des.Sched.create () in
  Des.Sched.spawn sched ~name:"updater" (fun () -> Tree.updater_loop t);
  for i = 0 to 3 do
    Des.Sched.spawn sched ~numa:(i mod 2) ~name:(Printf.sprintf "w%d" i) (fun () ->
        for j = 0 to 1999 do
          let k = (j * 4) + i in
          Tree.insert t (ik k) k;
          Hashtbl.replace acked k ()
        done;
        Tree.request_shutdown t)
  done;
  Des.Sched.spawn sched ~name:"crasher" (fun () ->
      Des.Sched.delay 2e-4;
      Des.Sched.abort_all sched;
      Machine.crash machine Machine.Strict);
  Des.Sched.run sched;
  Alcotest.(check bool) "crash hit mid-run" true (Hashtbl.length acked < 8000);
  ignore (Tree.recover t);
  ignore (Tree.check_invariants t);
  let lost = ref [] in
  Hashtbl.iter
    (fun k () -> if Tree.lookup t (ik k) = None then lost := k :: !lost)
    acked;
  Alcotest.(check (list int)) "acknowledged keys survive" [] !lost

(* A crash kills writers inside their operations, pinned in the
   epoch.  Recovery builds the volatile state anew, so none of them
   survives it: after one clean round no thread holds the epoch back,
   so the deferred frees ran and every SMO-log entry was cleared. *)
let test_crash_leaves_no_pinned_epoch () =
  let machine, t = make_tree () in
  for k = 0 to 4095 do
    Tree.insert t (ik (2 * k)) k
  done;
  (* inserts of odd keys split nodes, deletes of even ones merge them *)
  let done_ops = ref 0 in
  let churn i =
    for j = 0 to 499 do
      let k = (j * 4) + i in
      Tree.insert t (ik ((2 * k) + 1)) k;
      ignore (Tree.delete t (ik (2 * k)) : bool);
      incr done_ops
    done
  in
  let sched = Des.Sched.create () in
  Des.Sched.spawn sched ~name:"updater" (fun () -> Tree.updater_loop t);
  for i = 0 to 3 do
    Des.Sched.spawn sched ~numa:(i mod 2) ~name:(Printf.sprintf "w%d" i) (fun () -> churn i)
  done;
  Des.Sched.spawn sched ~name:"crasher" (fun () ->
      Des.Sched.delay 1e-4;
      Des.Sched.abort_all sched;
      Machine.crash machine Machine.Strict);
  Des.Sched.run sched;
  Alcotest.(check bool) "crash hit mid-run" true (!done_ops < 4 * 500);
  ignore (Tree.recover t : int);
  run_concurrent t 4 churn;
  Alcotest.(check int) "no thread holds the epoch" (-1) (Pactree.Epoch.holder (Tree.epoch t));
  Alcotest.(check int) "smo backlog" 0 (Tree.smo_backlog t);
  ignore (Tree.check_invariants t : int)

(* A writer's range check of the next node reads that node's line 3,
   where the anchor's length and bytes are, and nothing else of it.
   Two trees hold keys 0-31 in the same slots of the head node: in
   [split] the head split off keys 32-64 to a right neighbour, in
   [alone] it never had one.  An update of key 5 differs between them
   by the trie's root Node4 of [split] (its copy and its validation:
   [alone]'s root is the head's leaf) and by the range check of the
   head's next node: one line. *)
let test_next_range_check_reads () =
  let update_reads n =
    let machine, t = make_tree ~cfg:{ small_cfg with Tree.async_smo = false } () in
    for i = 0 to n - 1 do
      Tree.insert t (ik i) i
    done;
    let reads () =
      let s = Machine.stats machine in
      s.Nvm.Stats.cache_hits + s.Nvm.Stats.cache_misses
    in
    ignore (Tree.update t (ik 5) 0 : bool);
    let r0 = reads () in
    ignore (Tree.update t (ik 5) 1 : bool);
    let r = reads () - r0 in
    (r, Tree.check_invariants t)
  in
  let split, split_nodes = update_reads 65 and alone, alone_nodes = update_reads 32 in
  Alcotest.(check (pair int int)) "data nodes" (2, 1) (split_nodes, alone_nodes);
  Alcotest.(check int) "root Node4 (2) + the next node's line 3 (1)" 3 (split - alone)

let suite =
  [
    Alcotest.test_case "empty lookup" `Quick test_empty_lookup;
    Alcotest.test_case "insert/lookup basic" `Quick test_insert_lookup_basic;
    Alcotest.test_case "upsert semantics" `Quick test_upsert_semantics;
    Alcotest.test_case "update only existing" `Quick test_update_only_existing;
    Alcotest.test_case "delete" `Quick test_delete;
    Alcotest.test_case "5000 keys, splits" `Quick test_splits_many_keys;
    Alcotest.test_case "random order inserts" `Quick test_random_order_inserts;
    Alcotest.test_case "deletes trigger merges" `Quick test_deletes_trigger_merges;
    Alcotest.test_case "scan basics" `Quick test_scan_basic;
    Alcotest.test_case "scan edge cases" `Quick test_scan_empty_and_before_first;
    Alcotest.test_case "string keys" `Quick test_string_keys;
    Alcotest.test_case "string keys x3000" `Quick test_string_keys_many;
    QCheck_alcotest.to_alcotest test_qcheck_model;
    QCheck_alcotest.to_alcotest test_qcheck_scan_model;
    Alcotest.test_case "concurrent disjoint inserts" `Quick test_concurrent_disjoint_inserts;
    Alcotest.test_case "readers never miss (GC1)" `Quick test_concurrent_readers_never_miss;
    Alcotest.test_case "concurrent mixed + deletes" `Quick test_concurrent_mixed_with_deletes;
    Alcotest.test_case "concurrent scans stay sorted" `Quick test_concurrent_scans;
    Alcotest.test_case "updater catches up" `Quick test_async_updater_catches_up;
    Alcotest.test_case "jump histogram (§6.7)" `Quick test_jump_histogram_populated;
    Alcotest.test_case "variant: sync SMO" `Quick test_variant_sync_smo;
    Alcotest.test_case "variant: persist permutation" `Quick
      test_variant_no_selective_persistence;
    Alcotest.test_case "variant: DRAM search layer" `Quick test_variant_dram_search_layer;
    Alcotest.test_case "recovery: simple (§6.8)" `Quick test_recovery_simple;
    Alcotest.test_case "recovery: pending SMO log" `Quick test_recovery_with_pending_smo;
    Alcotest.test_case "recovery: DRAM search layer" `Quick test_recovery_dram_search_layer;
    Alcotest.test_case "recovery: crash mid concurrent run" `Quick
      test_recovery_mid_concurrent_run;
    Alcotest.test_case "lookups racing splits and merges" `Quick test_lookups_race_smo;
    Alcotest.test_case "recovery: 20 crash rounds" `Quick test_recovery_repeated_crashes;
    Alcotest.test_case "full SMO rings while the epoch is held" `Quick
      test_full_rings_epoch_held;
    Alcotest.test_case "a crash leaves no pinned epoch" `Quick
      test_crash_leaves_no_pinned_epoch;
    Alcotest.test_case "a second updater on one tree runs" `Quick test_second_updater_runs;
    Alcotest.test_case "a writer's range check reads the next node's line 3" `Quick
      test_next_range_check_reads;
    Alcotest.test_case "a split takes the thread's spare" `Quick test_split_takes_spare;
    Alcotest.test_case "writers sharing a spare slot fail" `Quick test_shared_spare_slot_fails;
  ]
