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
  if w > ceiling then Alcotest.failf "%s: %.2f words per call, budget %.2f" what w ceiling

let test_measure_overhead () = check_zero "measuring an empty call" (words (fun () -> ()))

(* ---------- des ---------- *)

let test_event_queue () =
  let q = Event_queue.create () in
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

(* Alternately an entry that comes straight back out and one that
   takes the minimum's place in one sift. *)
let test_event_queue_push_pop () =
  let q = Event_queue.create () in
  for i = 0 to 63 do
    Event_queue.add q ~time:(float_of_int (i mod 7)) i
  done;
  let push_pop i =
    ignore (Event_queue.push_pop q ~time:(if i land 1 = 0 then -1.0 else 5.0) i : int)
  in
  push_pop 0;
  check_zero "Event_queue.push_pop" (words_per_call 1000 push_pop)

let test_sched_charge () =
  let w = in_sim (fun () -> words (fun () -> Sched.charge 1e-9)) in
  check_zero "Sched.charge" w

(* The only thread delays, so it resumes without being queued: the
   words are the continuation's. *)
let test_sched_delay () =
  let w =
    in_sim (fun () ->
        Sched.delay 1e-9;
        words (fun () -> Sched.delay 1e-9))
  in
  check_ceiling "Sched.delay" 2.0 w

(* One failed attempt of a vlock spin while the lock's holder sleeps
   in the queue: the wait allocates no more than a [Sched.delay] in the
   same state (its continuation, and in this profile the box of the
   wake time the queue is offered). *)
let test_sched_wait () =
  let sched = Sched.create () in
  let delay_w = ref 0.0 and wait_w = ref 0.0 in
  Sched.spawn sched ~name:"holder" (fun () -> Sched.delay 1.0);
  Sched.spawn sched ~name:"waiter" (fun () ->
      Sched.delay 1e-9;
      delay_w := words_per_call 100 (fun _ -> Sched.delay 1e-9);
      wait_w :=
        words_per_call 100 (fun i ->
            Sched.wait "vlock acquire" 64 ~attempt:i (Sched.Doubling (40e-9, 11))));
  Sched.run sched;
  check_ceiling "Sched.wait" !delay_w !wait_w

(* [threads] threads that each delay [rounds] times by pauses that
   make the event queue reorder them; the constant pauses box nothing. *)
let switch_run threads rounds =
  let sched = Sched.create () in
  for i = 1 to threads do
    Sched.spawn sched ~name:"switch" (fun () ->
        for r = 1 to rounds do
          Sched.delay
            (match (i * r) land 3 with 0 -> 1e-9 | 1 -> 3e-9 | 2 -> 7e-9 | _ -> 2e-9)
        done)
  done;
  words (fun () -> Sched.run sched)

(* The words of one switch among 17 threads, each one a queue swap of
   thread ids: the difference of two runs cancels the spawns and the
   growth of the queue and the thread table.  No more than the
   continuation of a lone thread's delay, plus the box of the wake time
   this profile passes to the queue (2 words; release inlines the queue
   and allocates the continuation alone): a boxed id or time on the
   path exceeds it. *)
let test_sched_switch_17 () =
  let per_switch = (switch_run 17 300 -. switch_run 17 100) /. float_of_int (17 * 200) in
  let continuation =
    in_sim (fun () ->
        Sched.delay 1e-9;
        words (fun () -> Sched.delay 1e-9))
  in
  check_ceiling "a switch among 17 threads" (continuation +. 2.0) per_switch

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
  check_ceiling "Waitq.wait + signal_one" 8.0 !w

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
  check_ceiling "write + clwb + fence" 4.0 w

(* Offset [0] and offset [far] share a slot of the direct-mapped CPU
   cache, so reading them in turn misses every time and goes to the
   device.  [far] is found through the slot function itself.  The
   request and completion times stay in the pool's cursor
   ([Sched.stamp], [Sched.delay_interval]), so a miss allocates what a
   [Sched.delay] does: its continuation. *)
let test_cache_miss () =
  let machine = Machine.create ~numa_count:1 () in
  let slots = 1 lsl Nvm.Config.cache_slots_log2 in
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
  check_ceiling "cache-missing Pool.read_int" 2.0 w

(* ---------- pmalloc ---------- *)

(* Every persistent-pointer dereference resolves its pool: an index
   into the machine's pool table. *)
let test_registry_resolve () =
  let machine = Machine.create ~numa_count:1 () in
  let pools =
    Array.init 3 (fun i -> Pool.create machine ~name:(string_of_int i) ~numa:0 ~capacity:256 ())
  in
  let ptrs = Array.map (fun p -> Pmalloc.Pptr.make ~pool:(Pool.id p) ~off:64) pools in
  let resolve i = ignore (Pmalloc.Pptr.resolve machine ptrs.(i mod 3) : Pool.t) in
  resolve 0;
  check_zero "Pptr.resolve" (words_per_call 3000 resolve)

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

(* A hot-key draw takes its uniform variate from [Rng] as an int, so no
   boxed float crosses a call. *)
let test_zipf_next () =
  let z = Workload.Zipf.create ~n:20_000 ~theta:0.99 (Des.Rng.create ~seed:9L) in
  let draw _ = ignore (Workload.Zipf.next z : int) in
  draw 0;
  check_zero "Zipf.next" (words_per_call 1000 draw)

(* ---------- pactree ---------- *)

(* Every index operation enters and exits an epoch, and every 32nd exit
   (every exit while an action is deferred) tries to advance it: an
   attempt that finds nothing ripe allocates nothing. *)
let test_epoch_advance () =
  let e = Pactree.Epoch.create () in
  let op () =
    Pactree.Epoch.enter e;
    Pactree.Epoch.exit e
  in
  let ops, waiting =
    in_sim (fun () ->
        op ();
        let ops = words_per_call 64 (fun _ -> op ()) in
        (* deferred now, ripe two advances later *)
        Pactree.Epoch.defer e ignore;
        (ops, words (fun () -> Pactree.Epoch.try_advance e)))
  in
  check_zero "Epoch.enter + exit" ops;
  check_zero "Epoch.try_advance with nothing ripe" waiting;
  Alcotest.(check int) "the action still waits" 1 (Pactree.Epoch.pending e)

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
        Array.iteri
          (fun i k -> ignore (Node.insert lay node.pool node.off k i : Node.write_result))
          keys;
        let probe () =
          ignore (Node.find lay node.pool node.off keys.(40) : int);
          ignore (Node.find lay node.pool node.off missing : int)
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
        Array.iteri
          (fun i k -> ignore (Node.insert lay node.pool node.off k i : Node.write_result))
          keys;
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
  check_ceiling "Tree.lookup" 2.40 lookup;
  check_ceiling "Tree.insert of a fresh key" 10.5 insert

(* Outside a simulation nothing charges a delay, so nothing switches
   threads: a [Tree.insert] that splits no node, of a fresh key or over
   a present one, allocates nothing.  The trie takes the key as it is,
   the writer addresses the locked node by pool and offset, and the
   bitmap goes through the thread's scratch buffer. *)
let test_tree_insert_host () =
  let machine = Machine.create ~numa_count:1 () in
  let tree = Tree.create machine ~cfg:tree_cfg () in
  let keys = Array.init (2 * loaded) (fun i -> Key.of_int (i * 7919 mod 100_003)) in
  for i = 0 to loaded - 1 do
    Tree.insert tree keys.(i) i
  done;
  let splits () = (Tree.stats tree).Tree.splits in
  let worst = ref 0.0 and measured = ref 0 in
  let insert k v =
    let s = splits () in
    let w = words (fun () -> Tree.insert tree k v) in
    if splits () = s then begin
      incr measured;
      worst := Float.max !worst w
    end
  in
  for i = loaded to (2 * loaded) - 1 do
    insert keys.(i) i;
    insert keys.(i - loaded) i
  done;
  if !measured < loaded then Alcotest.failf "only %d inserts split no node" !measured;
  check_zero "a Tree.insert that splits no node" !worst

(* One [Tree.insert] that splits a full data node: the split's sort,
   log entry, new node (the thread's spare: no allocator call), the
   anchor key (the one key it allocates), the
   pending pair it passes to the new node and the queued search-layer
   update, without the replay (no updater runs).  The second split is measured: the first creates the
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
  check_ceiling "Tree.insert that splits a full node" 67.0 w

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

(* The charged line reads, flushes and fences of the first [Tree.insert]
   of [key j], [j] = 0, 1, ..., that splits a node. *)
let split_cost machine tree key =
  let rec go j =
    let splits = (Tree.stats tree).Tree.splits in
    let s0 = Nvm.Stats.snapshot (Machine.stats machine) in
    Tree.insert tree (key j) j;
    if (Tree.stats tree).Tree.splits = splits then go (j + 1)
    else
      let d = Nvm.Stats.diff (Machine.stats machine) s0 in
      (j, d.Nvm.Stats.cache_hits + d.cache_misses, d.flushes, d.fences)
  in
  go 0

let check_split what (reads, flushes, fences) (_, got_reads, got_flushes, got_fences) =
  if (got_reads, got_flushes, got_fences) <> (reads, flushes, fences) then
    Alcotest.failf "%s: %d line reads, %d flushes, %d fences; pinned at %d, %d, %d" what got_reads
      got_flushes got_fences reads flushes fences

(* The lookups, then on the same index 10K inserts of fresh keys
   (which fill the nodes evenly and split none), 10K inserts over
   present keys, 10K updates, and two inserts that split a node, pinned
   by their line reads, flushes and fences: a split reads and writes
   each line of both nodes once, allocates nothing (its new node is the
   thread's spare, which an earlier insert allocated) and fences three
   times after the log entry's two (new node with the spare's emptied
   slot, the link, then the bitmap clear with the neighbour's [prev]),
   plus the two of an insert into the left node.
   A writer locks its node by a CAS from the lock word its walk copied,
   then copies line 1 and writes from that copy: a lock word, header or
   bitmap read again moves these figures. *)
let test_tree_line_reads () =
  let machine = Machine.create ~numa_count:2 () in
  let tree = Tree.create machine ~cfg:tree_cfg () in
  let sched = Sched.create () in
  Sched.spawn sched ~name:"updater" (fun () -> Tree.updater_loop tree);
  let fresh = read_keys / 2 in
  let lookup = ref 0.0 and insert = ref 0.0 and overwrite = ref 0.0 and update = ref 0.0 in
  let right = ref (0, 0, 0, 0) and left = ref (0, 0, 0, 0) in
  Sched.spawn sched ~name:"client" (fun () ->
      for i = 0 to read_keys - 1 do
        Tree.insert tree (read_key i) i
      done;
      (* let the updater bring the search layer up to date *)
      Sched.delay 1e-3;
      lookup :=
        reads_per_call machine read_keys (fun i ->
            ignore (Tree.lookup tree (read_key i) : int option));
      insert :=
        reads_per_call machine fresh (fun i -> Tree.insert tree (read_key (read_keys + i)) i);
      overwrite := reads_per_call machine fresh (fun i -> Tree.insert tree (read_key i) (i + 1));
      update :=
        reads_per_call machine fresh (fun i ->
            ignore (Tree.update tree (read_key (fresh + i)) (i + 2) : bool));
      (* One split whose pending key goes to the new node (ascending keys
         past the loaded ones), then one whose key stays in the left
         node (descending keys just below the largest of those), with
         no updater running: its replay is not counted.  Two splits of
         keys from 5M on first give the keys from 1M on a node with a
         right neighbour, whose [prev] each split fixes. *)
      Tree.request_shutdown tree;
      Sched.delay 1e-3;
      let far = ref 5_000_000 and s0 = (Tree.stats tree).Tree.splits in
      while (Tree.stats tree).Tree.splits < s0 + 2 do
        Tree.insert tree (Key.of_int !far) 0;
        incr far
      done;
      let base = 1_000_000 in
      right := split_cost machine tree (fun j -> Key.of_int (base + (1000 * j)));
      let top = base + (1000 * (let j, _, _, _ = !right in j)) in
      (* an overwrite refills the spare the first split took *)
      Tree.insert tree (read_key 0) 0;
      left := split_cost machine tree (fun j -> Key.of_int (top - 1 - j)));
  Sched.run sched;
  check_reads "Tree.lookup" 14.5585 !lookup;
  check_reads "Tree.insert of a fresh key" 17.6684 !insert;
  check_reads "Tree.insert over a present key" 18.5161 !overwrite;
  check_reads "Tree.update" 18.6110 !update;
  check_split "Tree.insert that splits, key to the new node" (168, 21, 5) !right;
  check_split "Tree.insert that splits, key to the left node" (171, 22, 7) !left

(* The same lookups again for their words: the [Some] and the cache
   misses; the trie takes the key as it is, and each trie level builds
   nothing. *)
let test_pdlart_line_reads () =
  let machine = Machine.create ~numa_count:2 () in
  let index = Baselines.Pdlart.create machine () in
  let lookup i = ignore (Baselines.Pdlart.lookup index (read_key i) : int option) in
  let reads, words =
    in_sim (fun () ->
        for i = 0 to read_keys - 1 do
          Baselines.Pdlart.insert index (read_key i) i
        done;
        let reads = reads_per_call machine read_keys lookup in
        (reads, words_per_call read_keys lookup))
  in
  check_reads "PDL-ART lookup" 11.9663 reads;
  check_ceiling "PDL-ART lookup" 10.5 words

(* The writers visit nodes like the lookups: on the same loaded index,
   10K inserts of fresh keys, then their deletes.  An insert pays the
   lookup that precedes it, the record allocation and the in-node
   child add. *)
let test_pdlart_writer_reads () =
  let machine = Machine.create ~numa_count:2 () in
  let index = Baselines.Pdlart.create machine () in
  let fresh = read_keys / 2 in
  let insert_words = ref 0.0 in
  let insert, delete =
    in_sim (fun () ->
        for i = 0 to read_keys - 1 do
          Baselines.Pdlart.insert index (read_key i) i
        done;
        let insert =
          reads_per_call machine fresh (fun i ->
              Baselines.Pdlart.insert index (read_key (read_keys + i)) i)
        in
        let delete =
          reads_per_call machine fresh (fun i ->
              ignore (Baselines.Pdlart.delete index (read_key (read_keys + i)) : bool))
        in
        (* words of the same inserts again, into the restored index *)
        insert_words :=
          words_per_call fresh (fun i ->
              Baselines.Pdlart.insert index (read_key (read_keys + i)) i);
        (insert, delete))
  in
  check_reads "PDL-ART insert of a fresh key" 44.9801 insert;
  check_reads "PDL-ART delete" 34.0066 delete;
  check_ceiling "PDL-ART insert of a fresh key" 106.0 !insert_words

(* An insert into a root Node48 (20 int keys that differ only in their
   last byte, then a 21st) takes the used slots from the copy of the
   node's line 0 and one read of the rest of its index, and builds no
   array: its line reads are pinned, and its words held to a ceiling. *)
let test_pdlart_node48_insert () =
  let machine = Machine.create ~numa_count:1 () in
  let index = Baselines.Pdlart.create machine () in
  let reads, w =
    in_sim (fun () ->
        for i = 0 to 19 do
          Baselines.Pdlart.insert index (Key.of_int i) i
        done;
        let r0 = line_reads machine in
        let w = words (fun () -> Baselines.Pdlart.insert index (Key.of_int 20) 20) in
        (line_reads machine - r0, w))
  in
  Alcotest.(check int) "PDL-ART insert into a root Node48: line reads" 38 reads;
  check_ceiling "PDL-ART insert into a root Node48" 108.0 w

(* A scan enumerates each node's children through its header copy and
   builds nothing per node: on the same loaded index, scans of 50
   records from each of 1000 keys, counted per emitted record.  The
   words are the scan's own (its state); the callback only counts. *)
let test_pdlart_scan_reads () =
  let machine = Machine.create ~numa_count:2 () in
  let index = Baselines.Pdlart.create machine () in
  let art = Baselines.Pdlart.art index in
  let scans = 1000 and len = 50 in
  let emitted = ref 0 in
  let scan i =
    let n = ref 0 in
    Pactree.Art.iter_from art
      (read_key (i * 17))
      (fun _ ->
        incr n;
        !n < len);
    emitted := !emitted + !n
  in
  let reads, words =
    in_sim (fun () ->
        for i = 0 to read_keys - 1 do
          Baselines.Pdlart.insert index (read_key i) i
        done;
        let r0 = line_reads machine in
        let w =
          words (fun () ->
              for i = 0 to scans - 1 do
                scan i
              done)
        in
        (float_of_int (line_reads machine - r0), w))
  in
  let per_record x = x /. float_of_int !emitted in
  Alcotest.(check int) "every scan emitted its records" (scans * len) !emitted;
  check_reads "PDL-ART scan, per emitted record" 7.2253 (per_record reads);
  check_ceiling "PDL-ART scan, per emitted record" 2.0 (per_record words)

(* The B+-tree baselines on the same loaded index: charged line reads
   per lookup, and words-per-call ceilings of their lookups and of
   inserts of 10K fresh keys.  The words include the [Some] of a hit
   and, for an insert, the stored key's representation and any split
   the insert causes. *)
let test_baseline_reads () =
  List.iter
    (fun (sys, pinned_reads, lookup_ceiling, insert_ceiling) ->
      let what op = Printf.sprintf "%s %s" (Experiments.Factory.name sys) op in
      let machine = Machine.create ~numa_count:2 () in
      let index = (Experiments.Factory.make_backend machine sys).Baselines.System.b_index in
      let lookup i = ignore (Baselines.Index_intf.lookup index (read_key i) : int option) in
      let fresh = read_keys / 2 in
      let reads, lookup_words, insert_words =
        in_sim (fun () ->
            for i = 0 to read_keys - 1 do
              Baselines.Index_intf.insert index (read_key i) i
            done;
            let reads = reads_per_call machine read_keys lookup in
            let lookup_words = words_per_call read_keys lookup in
            ( reads,
              lookup_words,
              words_per_call fresh (fun i ->
                  Baselines.Index_intf.insert index (read_key (read_keys + i)) i) ))
      in
      check_reads (what "lookup") pinned_reads reads;
      check_ceiling (what "lookup") lookup_ceiling lookup_words;
      check_ceiling (what "insert of a fresh key") insert_ceiling insert_words)
    [
      (Experiments.Factory.Fastfair_sys, 44.0672, 39.4644, 264.0);
      (Experiments.Factory.Bztree_sys, 38.2268, 26.52, 412.0);
      (Experiments.Factory.Fptree_sys, 5.0754, 48.4, 46.4);
    ]

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
  check_ceiling "Engine.run per request" 63.0 (w /. 4_000.0)

let () = Hang_alarm.arm ()

let () =
  Alcotest.run "alloc"
    [
      ( "budgets",
        [
          Alcotest.test_case "measuring overhead" `Quick test_measure_overhead;
          Alcotest.test_case "event queue add + pop" `Quick test_event_queue;
          Alcotest.test_case "event queue push_pop" `Quick test_event_queue_push_pop;
          Alcotest.test_case "sched charge" `Quick test_sched_charge;
          Alcotest.test_case "sched delay" `Quick test_sched_delay;
          Alcotest.test_case "sched wait" `Quick test_sched_wait;
          Alcotest.test_case "sched switch among 17 threads" `Quick test_sched_switch_17;
          Alcotest.test_case "waitq wait + signal_one" `Quick test_waitq_cycle;
          Alcotest.test_case "pool accessors" `Quick test_pool_accessors;
          Alcotest.test_case "cache-missing read" `Quick test_cache_miss;
          Alcotest.test_case "pool growth" `Quick test_pool_growth;
          Alcotest.test_case "clwb + fence" `Quick test_clwb_fence;
          Alcotest.test_case "registry resolve" `Quick test_registry_resolve;
          Alcotest.test_case "percentile sort" `Quick test_percentile_sort;
          Alcotest.test_case "zipf next" `Quick test_zipf_next;
          Alcotest.test_case "epoch advance" `Quick test_epoch_advance;
          Alcotest.test_case "data node find" `Quick test_data_node_find;
          Alcotest.test_case "data node sort" `Quick test_data_node_sort;
          Alcotest.test_case "tree lookup + insert" `Quick test_tree_ops;
          Alcotest.test_case "tree insert outside a simulation" `Quick test_tree_insert_host;
          Alcotest.test_case "tree insert that splits" `Quick test_tree_split;
          Alcotest.test_case "engine per request" `Quick test_engine_request;
          Alcotest.test_case "tree lookup line reads" `Quick test_tree_line_reads;
          Alcotest.test_case "pdlart lookup line reads" `Quick test_pdlart_line_reads;
          Alcotest.test_case "pdlart insert + delete line reads" `Quick test_pdlart_writer_reads;
          Alcotest.test_case "pdlart scan line reads" `Quick test_pdlart_scan_reads;
          Alcotest.test_case "pdlart insert into a Node48" `Quick test_pdlart_node48_insert;
          Alcotest.test_case "baseline lookup line reads + words" `Quick test_baseline_reads;
          Alcotest.test_case "resident pool bytes" `Quick test_resident_bytes;
        ] );
    ]
