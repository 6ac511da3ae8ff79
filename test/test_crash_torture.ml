(* Additional crash-consistency torture tests: interleaved crash
   points, flaky-mode sweeps, and cross-layer recovery interactions
   beyond the targeted cases in test_tree.ml. *)

module Machine = Nvm.Machine
module Key = Pactree.Key
module Tree = Pactree.Tree

let ik = Key.of_int

(* All stochastic choices below derive from this seed; export
   PACTREE_SEED to replay a printed failure exactly. *)
let base_seed = Des.Rng.env_seed ~default:0L

let seed_of n = Int64.add base_seed (Int64.of_int n)

let cfg =
  {
    Tree.default_config with
    Tree.data_capacity = 1 lsl 23;
    search_capacity = 1 lsl 22;
  }

(* Crash at a precise simulated instant during a single-writer run;
   sweep the crash time across the whole run.  Every acknowledged
   insert must survive; invariants must hold. *)
let test_crash_time_sweep () =
  List.iter
    (fun crash_at ->
      let machine = Machine.create ~numa_count:2 () in
      let t = Tree.create machine ~cfg () in
      let acked = ref [] in
      let sched = Des.Sched.create () in
      Des.Sched.spawn sched ~name:"updater" (fun () -> Tree.updater_loop t);
      Des.Sched.spawn sched ~name:"writer" (fun () ->
          for i = 0 to 2_999 do
            Tree.insert t (ik i) i;
            acked := i :: !acked
          done;
          Tree.request_shutdown t);
      Des.Sched.spawn sched ~name:"crasher" (fun () ->
          Des.Sched.delay crash_at;
          Des.Sched.abort_all sched;
          Machine.crash machine Machine.Strict);
      Des.Sched.run sched;
      ignore (Tree.recover t);
      ignore (Tree.check_invariants t);
      List.iter
        (fun i ->
          if Tree.lookup t (ik i) <> Some i then
            Alcotest.failf "crash at %.2e: acked key %d lost" crash_at i)
        !acked)
    [ 1e-6; 5e-6; 2e-5; 1e-4; 5e-4; 2e-3 ]

(* Flaky crashes with survival probabilities from 0 to 1: durability
   of acknowledged writes must not depend on luck. *)
let test_flaky_probability_sweep () =
  List.iteri
    (fun run p ->
      let machine = Machine.create ~numa_count:2 () in
      let t = Tree.create machine ~cfg () in
      for i = 0 to 1_999 do
        Tree.insert t (ik i) (i * 3)
      done;
      let rng = Des.Rng.create ~seed:(seed_of (run + 77)) in
      Machine.crash machine (Machine.Flaky (p, rng));
      ignore (Tree.recover t);
      ignore (Tree.check_invariants t);
      for i = 0 to 1_999 do
        if Tree.lookup t (ik i) <> Some (i * 3) then
          Alcotest.failf "flaky p=%.2f: key %d lost (base seed %Ld, PACTREE_SEED replays)"
            p i base_seed
      done)
    [ 0.0; 0.1; 0.3; 0.5; 0.7; 0.9; 1.0 ]

(* Crash while deletes/merges are in flight; deleted keys must stay
   deleted once acknowledged, survivors must survive. *)
let test_crash_during_merges () =
  let machine = Machine.create ~numa_count:2 () in
  let t = Tree.create machine ~cfg () in
  for i = 0 to 2_999 do
    Tree.insert t (ik i) i
  done;
  let deleted = ref [] in
  let sched = Des.Sched.create () in
  Des.Sched.spawn sched ~name:"updater" (fun () -> Tree.updater_loop t);
  Des.Sched.spawn sched ~name:"deleter" (fun () ->
      for i = 0 to 2_999 do
        if i mod 3 <> 0 then begin
          ignore (Tree.delete t (ik i));
          deleted := i :: !deleted
        end
      done;
      Tree.request_shutdown t);
  Des.Sched.spawn sched ~name:"crasher" (fun () ->
      Des.Sched.delay 3e-4;
      Des.Sched.abort_all sched;
      Machine.crash machine Machine.Strict);
  Des.Sched.run sched;
  ignore (Tree.recover t);
  ignore (Tree.check_invariants t);
  List.iter
    (fun i ->
      if Tree.lookup t (ik i) <> None then
        Alcotest.failf "acked delete of %d resurrected" i)
    !deleted

(* Crash DURING recovery (a second power failure), then recover again. *)
let test_crash_during_recovery () =
  let machine = Machine.create ~numa_count:2 () in
  let t = Tree.create machine ~cfg () in
  let sched = Des.Sched.create () in
  Des.Sched.spawn sched ~name:"writer" (fun () ->
      for i = 0 to 1_999 do
        Tree.insert t (ik i) i
      done);
  Des.Sched.spawn sched ~name:"crasher" (fun () ->
      Des.Sched.delay 2e-4;
      Des.Sched.abort_all sched;
      Machine.crash machine Machine.Strict);
  Des.Sched.run sched;
  (* run recovery inside a sim and crash it partway *)
  let sched2 = Des.Sched.create () in
  Des.Sched.spawn sched2 ~name:"recoverer" (fun () -> ignore (Tree.recover t));
  Des.Sched.spawn sched2 ~name:"crasher" (fun () ->
      Des.Sched.delay 2e-5;
      Des.Sched.abort_all sched2;
      Machine.crash machine Machine.Strict);
  Des.Sched.run sched2;
  (* final, uninterrupted recovery *)
  ignore (Tree.recover t);
  ignore (Tree.check_invariants t);
  (* all acknowledged (completed) inserts from before the first crash
     would have been tracked by the writer; here we just require a
     consistent, writable index *)
  Tree.insert t (ik 999_983) 1;
  Alcotest.(check (option int)) "writable after double crash" (Some 1)
    (Tree.lookup t (ik 999_983))

(* Scans immediately after recovery must be sorted and complete. *)
let test_scan_after_recovery () =
  let machine = Machine.create ~numa_count:2 () in
  let t = Tree.create machine ~cfg () in
  for i = 0 to 1_999 do
    Tree.insert t (ik (i * 2)) i
  done;
  Machine.crash machine Machine.Strict;
  ignore (Tree.recover t);
  let r = Tree.scan t (ik 0) 2_000 in
  Alcotest.(check int) "all pairs" 2_000 (List.length r);
  let keys = List.map (fun (k, _) -> Key.to_int k) r in
  Alcotest.(check bool) "sorted" true (keys = List.sort compare keys)

(* The PMDK heap itself must survive arbitrary crash/recover cycles
   interleaved with allocation and free. *)
let test_heap_crash_cycles () =
  let machine = Machine.create ~numa_count:1 () in
  let heap =
    Pmalloc.Heap.create machine ~kind:Pmalloc.Heap.Pmdk ~name:"torture" ~numa_pools:1
      ~capacity:(1 lsl 20) ()
  in
  let dest = Nvm.Pool.create machine ~name:"dest" ~numa:0 ~capacity:4096 () in
  let rng = Des.Rng.create ~seed:(seed_of 55) in
  let live = ref [] in
  for round = 0 to 19 do
    for _ = 0 to 9 do
      if Des.Rng.bool rng || !live = [] then begin
        let size = 16 + Des.Rng.int rng 200 in
        let ptr = Pmalloc.Heap.alloc_to heap ~size ~dest_pool:dest ~dest_off:0 () in
        live := ptr :: !live
      end
      else begin
        match !live with
        | p :: rest ->
            Pmalloc.Heap.free heap p;
            live := rest
        | [] -> ()
      end
    done;
    Machine.crash machine Machine.Strict;
    Pmalloc.Heap.recover heap;
    ignore round
  done;
  (* allocations still work and produce distinct blocks *)
  let a = Pmalloc.Heap.alloc heap 64 and b = Pmalloc.Heap.alloc heap 64 in
  Alcotest.(check bool) "distinct after cycles" false (Pmalloc.Pptr.equal a b)

(* ---------- splits and merges over garbage, crashed at each fence ---------- *)

exception Crash_point

(* Run [op], raising [Crash_point] from the persist-event stream at its
   [k]-th fence, before that fence persists anything: a crash then
   leaves what the earlier fences made durable (and, in a flaky crash,
   any line the cache evicted).  [true] if [op] finished first. *)
let run_until_fence machine k op =
  let n = ref 0 in
  let unsubscribe =
    Machine.subscribe machine (function
      | Machine.Fence _ ->
          incr n;
          if !n = k then raise Crash_point
      | _ -> ())
  in
  let finished = match op () with () -> true | exception Crash_point -> false in
  unsubscribe ();
  finished

(* The number of lines each fence of [op] persists, in order. *)
let fence_lines machine op =
  let cur = ref 0 and acc = ref [] in
  let unsubscribe =
    Machine.subscribe machine (function
      | Machine.Clwb _ -> incr cur
      | Machine.Fence _ ->
          acc := !cur :: !acc;
          cur := 0
      | _ -> ())
  in
  op ();
  unsubscribe ();
  Array.of_list (List.rev !acc)

(* A tree whose data heap hands out blocks holding 0xFF bytes, with
   two data nodes: the head holds 32 multiples of 10 up to 320 and the
   32 odd keys below 64, so it is full, and its right neighbour holds
   330 .. 650. *)
let split_keys = List.init 65 (fun i -> 10 * (i + 1)) @ List.init 32 (fun i -> (2 * i) + 1)

let garbage_tree () =
  let machine = Machine.create ~numa_count:1 () in
  let t = Tree.create machine ~cfg () in
  Pmalloc.Heap.set_fill (Tree.data_heap t) (Some '\xff');
  List.iter (fun k -> Tree.insert t (ik k) k) split_keys;
  (machine, t)

let flaky k = Machine.Flaky (0.5, Des.Rng.create ~seed:(seed_of (1000 + k)))

(* After recovery: the invariants hold, every key of [present] is there
   with its value, none of [absent] is, [maybe] is there with [v] or
   not at all, a full scan is sorted, and the tree takes a new key. *)
let check_recovered what t ~present ~absent ~maybe:(mk, mv) =
  ignore (Tree.recover t);
  (try ignore (Tree.check_invariants t) with Failure m -> Alcotest.failf "%s: %s" what m);
  List.iter
    (fun k ->
      if Tree.lookup t (ik k) <> Some k then Alcotest.failf "%s: key %d lost" what k)
    present;
  List.iter
    (fun k ->
      if Tree.lookup t (ik k) <> None then Alcotest.failf "%s: deleted key %d back" what k)
    absent;
  (match Tree.lookup t (ik mk) with
  | None -> ()
  | Some v when v = mv -> ()
  | Some v -> Alcotest.failf "%s: in-flight key %d holds %d" what mk v);
  let keys = List.map (fun (k, _) -> Key.to_int k) (Tree.scan t (ik 0) 1_000) in
  if keys <> List.sort_uniq compare keys then Alcotest.failf "%s: scan not sorted" what;
  Tree.insert t (ik 5_000) 1;
  if Tree.lookup t (ik 5_000) <> Some 1 then Alcotest.failf "%s: not writable" what

(* A split crashed before each of its fences, strict and flaky, over
   garbage memory, with the pending key going to the new node (315)
   and to the left node (0).  The loop covers every window; the fence
   list shows the two split fences: the new node (header XPLine and
   entries), then the link, the bitmap clear and the neighbour's
   [prev] (three clwbs: the link and the clear share the left node's
   line 0, each flushed after its store).  A crash before the first is
   inside the new node's build, before the second after its persist,
   with the link stored or not. *)
let test_split_crash_windows () =
  List.iter
    (fun key ->
      let machine, t = garbage_tree () in
      let lines = fence_lines machine (fun () -> Tree.insert t (ik key) 999) in
      let n = Array.length lines in
      let build =
        match List.find_opt (fun i -> lines.(i) >= 12) (List.init n Fun.id) with
        | Some i -> i
        | None -> Alcotest.failf "key %d: no fence persists the new node" key
      in
      Alcotest.(check int) "the link + clear + prev fence takes three clwbs" 3
        lines.(build + 1);
      for k = 1 to n do
        List.iter
          (fun (mode_name, mode) ->
            let machine, t = garbage_tree () in
            if run_until_fence machine k (fun () -> Tree.insert t (ik key) 999) then
              Alcotest.failf "key %d: the insert ended before fence %d" key k;
            Machine.crash machine mode;
            check_recovered
              (Printf.sprintf "key %d, crash before fence %d of %d (%s)" key k n mode_name)
              t ~present:split_keys ~absent:[] ~maybe:(key, 999))
          [ ("strict", Machine.Strict); ("flaky", flaky k) ]
      done)
    [ 315; 0 ]

(* A delete that merges the two nodes, crashed before each of its
   fences: the keys deleted before it stay deleted, the rest survive. *)
let test_merge_crash_windows () =
  let deletes =
    List.init 24 (fun i -> 330 + (10 * i))
    @ List.init 32 (fun i -> (2 * i) + 1)
    @ List.init 20 (fun i -> 10 * (i + 1))
  in
  let merging =
    let _, t = garbage_tree () in
    let rec go i = function
      | [] -> Alcotest.fail "no delete merges"
      | k :: rest ->
          let merges = (Tree.stats t).Tree.merges in
          ignore (Tree.delete t (ik k));
          if (Tree.stats t).Tree.merges > merges then i else go (i + 1) rest
    in
    go 0 deletes
  in
  let before = List.filteri (fun i _ -> i < merging) deletes in
  let key = List.nth deletes merging in
  let present = List.filter (fun k -> k <> key && not (List.mem k before)) split_keys in
  let n =
    let machine, t = garbage_tree () in
    List.iter (fun k -> ignore (Tree.delete t (ik k))) before;
    Array.length (fence_lines machine (fun () -> ignore (Tree.delete t (ik key))))
  in
  for k = 1 to n do
    List.iter
      (fun (mode_name, mode) ->
        let machine, t = garbage_tree () in
        List.iter (fun k -> ignore (Tree.delete t (ik k))) before;
        if run_until_fence machine k (fun () -> ignore (Tree.delete t (ik key))) then
          Alcotest.failf "the delete ended before fence %d" k;
        Machine.crash machine mode;
        check_recovered
          (Printf.sprintf "merging delete of %d, crash before fence %d of %d (%s)" key k n
             mode_name)
          t ~present ~absent:before ~maybe:(key, key))
      [ ("strict", Machine.Strict); ("flaky", flaky k) ]
  done

(* Inserts, deletes (merges), lookups and scans on trees whose data
   heap hands out blocks holding 0xFF bytes, with the permutation
   array persisted or not and with string keys, then a strict and a
   flaky crash and recovery: nothing reads a field a fresh node did
   not write. *)
let test_garbage_memory () =
  List.iteri
    (fun run (name, cfg, key) ->
      List.iter
        (fun (mode_name, mode) ->
          let what = Printf.sprintf "%s, %s crash" name mode_name in
          let machine = Machine.create ~numa_count:2 () in
          let t = Tree.create machine ~cfg () in
          Pmalloc.Heap.set_fill (Tree.data_heap t) (Some '\xff');
          let rng = Des.Rng.create ~seed:(seed_of (2000 + run)) in
          let model = Hashtbl.create 4096 in
          for i = 0 to 5_999 do
            let k = Des.Rng.int rng 3_000 in
            if i mod 5 = 4 then begin
              ignore (Tree.delete t (key k));
              Hashtbl.remove model k
            end
            else begin
              Tree.insert t (key k) i;
              Hashtbl.replace model k i
            end;
            if i mod 500 = 0 then begin
              let got = List.length (Tree.scan t (key 0) 50) in
              if got <> min 50 (Hashtbl.length model) then
                Alcotest.failf "%s: scan of %d pairs" what got
            end
          done;
          (* then thin the key space out, so that nodes merge *)
          for k = 0 to 2_999 do
            if k mod 4 <> 0 then begin
              ignore (Tree.delete t (key k));
              Hashtbl.remove model k
            end
          done;
          let check stage =
            (try ignore (Tree.check_invariants t)
             with Failure m -> Alcotest.failf "%s, %s: %s" what stage m);
            Hashtbl.iter
              (fun k v ->
                if Tree.lookup t (key k) <> Some v then
                  Alcotest.failf "%s, %s: key %d lost" what stage k)
              model;
            let pairs = Tree.scan t (key 0) 10_000 in
            Alcotest.(check int) (what ^ ", " ^ stage ^ ": scan") (Hashtbl.length model)
              (List.length pairs)
          in
          check "before the crash";
          if (Tree.stats t).Tree.merges = 0 then Alcotest.failf "%s: no merge" what;
          Machine.crash machine mode;
          ignore (Tree.recover t);
          check "after recovery")
        [ ("strict", Machine.Strict); ("flaky", flaky run) ])
    [
      ("int keys", cfg, ik);
      ("persisted permutation", { cfg with Tree.selective_persistence = false }, ik);
      ( "string keys",
        { cfg with Tree.key_inline = 32 },
        fun k -> Key.of_string (Printf.sprintf "key-%06d" k) );
    ]

let suite =
  [
    Alcotest.test_case "crash-time sweep" `Quick test_crash_time_sweep;
    Alcotest.test_case "flaky probability sweep" `Quick test_flaky_probability_sweep;
    Alcotest.test_case "crash during merges" `Quick test_crash_during_merges;
    Alcotest.test_case "crash during recovery" `Quick test_crash_during_recovery;
    Alcotest.test_case "scan after recovery" `Quick test_scan_after_recovery;
    Alcotest.test_case "heap crash cycles" `Quick test_heap_crash_cycles;
    Alcotest.test_case "a split crashed at each fence" `Quick test_split_crash_windows;
    Alcotest.test_case "a merge crashed at each fence" `Quick test_merge_crash_windows;
    Alcotest.test_case "garbage memory" `Quick test_garbage_memory;
  ]
