(* PACTree (paper §4-§5): a persistent hybrid range index.

   - Data layer: a doubly-linked list of slotted {!Data_node}s.
   - Search layer: {!Art} (PDL-ART) indexing anchor keys.
   - The two layers are decoupled: splits and merges log to the
     per-thread {!Smo_log} and return; a background updater replays
     the log into the search layer (§4.3).  Readers tolerate the
     ephemeral inconsistency by walking the data layer's sibling
     pointers from the "jump node" (§5.3).

   Configuration toggles expose the paper's factor analysis (Fig 12):
   selective persistence, async vs synchronous SMO, and a DRAM-resident
   search layer.  Every layer keeps one pool per NUMA domain. *)

module Pool = Nvm.Pool
module Machine = Nvm.Machine
module Heap = Pmalloc.Heap
module Pptr = Pmalloc.Pptr
module Node = Data_node

type config = {
  key_inline : int;  (** 8 (integer keys) or 32 (string keys) *)
  async_smo : bool;  (** asynchronous search-layer update (§4.3) *)
  selective_persistence : bool;  (** do not persist permutation arrays (§4.4) *)
  search_layer_dram : bool;  (** place the search layer in DRAM (ablation) *)
  data_capacity : int;
  search_capacity : int;
}

let name = "PACTree"

let default_config =
  {
    key_inline = 8;
    async_smo = true;
    selective_persistence = true;
    search_layer_dram = false;
    data_capacity = Pool.max_capacity;
    search_capacity = Pool.max_capacity;
  }

type stats = {
  mutable splits : int;
  mutable merges : int;
  mutable reader_retries : int;
}

(* Everything a crash loses, built from the pools by [start] for
   [create] and [recover] alike: a restart keeps nothing of it. *)
type volatile = {
  art : Art.t;
  epoch : Epoch.t;
  gen : int; (* the trie's: a restart's bump voids every older lock *)
  log : Smo_log.t;
  uwq : Des.Sched.Waitq.t;
  pending_refs : Smo_log.entry_ref Queue.t;
  mutable shutdown : bool;
}

type t = {
  machine : Machine.t;
  cfg : config;
  lay : Node.layout;
  data_heap : Heap.t;
  search_heap : Heap.t;
  log_pools : Pool.t array;
  meta : Pool.t;
  mutable v : volatile;
  jump_hist : int array; (* §6.7: hops from jump node to target *)
  stats : stats;
}

(* Tree-private meta fields live just past the trie's meta region. *)
let round_up x a = (x + a - 1) / a * a

let tree_meta_base = round_up Art.meta_size 64

let off_head = tree_meta_base

let off_ts = tree_meta_base + 8

let epoch t = t.v.epoch

let machine t = t.machine

let data_heap t = t.data_heap

let stats t = t.stats

let art_stats t = Art.stats t.v.art

let jump_histogram t = Array.copy t.jump_hist

(* A fresh epoch, the trie opened anew (its generation bump voids
   every older lock), empty SMO-log counts and an idle updater. *)
let start machine ~search_heap ~meta ~log_pools =
  let key_of_leaf ptr = Node.anchor (Node.of_ptr machine ptr) in
  let compare_leaf ptr key = Node.compare_anchor (Pptr.resolve machine ptr) (Pptr.off ptr) key in
  let epoch = Epoch.create () in
  let art = Art.create ~heap:search_heap ~meta ~epoch ~key_of_leaf ~compare_leaf in
  {
    art;
    epoch;
    gen = Art.generation art;
    log = Smo_log.create log_pools ~base:0;
    uwq = Des.Sched.Waitq.create ();
    pending_refs = Queue.create ();
    shutdown = false;
  }

let create machine ?(cfg = default_config) () =
  let npools = Machine.numa_count machine in
  let data_heap =
    Heap.create machine ~kind:Heap.Pmdk ~name:"pactree.data" ~numa_pools:npools
      ~capacity:cfg.data_capacity ()
  in
  let search_heap =
    (* A DRAM search layer uses volatile heap metadata too: there is
       nothing crash-consistent about DRAM (the ablation's point). *)
    let kind = if cfg.search_layer_dram then Heap.Volatile_meta else Heap.Pmdk in
    Heap.create machine ~volatile_pool:cfg.search_layer_dram ~kind ~name:"pactree.search"
      ~numa_pools:npools ~capacity:cfg.search_capacity ()
  in
  let log_pools =
    Array.init npools (fun i ->
        Pool.create machine
          ~name:(Printf.sprintf "pactree.log.%d" i)
          ~numa:i ~capacity:Smo_log.region_size ())
  in
  let meta =
    Pool.create machine ~name:"pactree.meta" ~numa:0 ~capacity:(tree_meta_base + 64) ()
  in
  let lay =
    Node.layout ~persist_perm:(not cfg.selective_persistence) ~key_inline:cfg.key_inline ()
  in
  let t =
    {
      machine;
      cfg;
      lay;
      data_heap;
      search_heap;
      log_pools;
      meta;
      v = start machine ~search_heap ~meta ~log_pools;
      jump_hist = Array.make 16 0;
      stats = { splits = 0; merges = 0; reader_retries = 0 };
    }
  in
  (* Bootstrap: one head data node with the minimum anchor "".  The
     head pointer doubles as the malloc-to destination, so creation
     itself cannot leak. *)
  if Pobj.read_int (Pobj.make meta 0) off_head = 0 then begin
    let ptr =
      Heap.alloc_to data_heap ~numa:0 ~size:lay.Node.node_size ~dest_pool:meta
        ~dest_off:off_head ()
    in
    let head = Node.of_ptr t.machine ptr in
    Node.init lay head ~gen:t.v.gen ~anchor:"" ~next:Pptr.null ~prev:Pptr.null;
    Pobj.fence head;
    ignore (Art.insert t.v.art "" ptr)
  end;
  t

let head_ptr t = Pool.read_int t.meta off_head

(* The pool of the data node [p] points to: a visit addresses a node by
   its pool and [Pptr.off p], and builds no record. *)
let pool_of t p = Pptr.resolve t.machine p

(* Monotonic SMO timestamps (persisted lazily; replay order only
   matters among entries that coexist). *)
let next_ts t =
  let rec go () =
    let mo = Pobj.make t.meta 0 in
    let v = Pobj.read_int mo off_ts in
    if Pobj.cas mo off_ts ~expected:v (v + 1) then begin
      Pobj.clwb mo off_ts;
      v + 1
    end
    else go ()
  in
  go ()

(* ---------- locating the target data node (§5.3) ---------- *)

exception Lost
(* Raised when the data-layer walk does not converge (e.g. after
   reading state a concurrent SMO tore down); callers retry. *)

(* Is [key] below the anchor of the successor of the node last copied
   to the scratch buffer? *)
let snap_below_next t key =
  let nxt = Node.snap_next () in
  Pptr.is_null nxt || Node.compare_anchor (pool_of t nxt) (Pptr.off nxt) key > 0

(* From the search-layer jump node, walk sibling pointers until the
   node whose [anchor, next.anchor) range covers [key].  Unsynchronised
   search layers only cost extra hops (ephemeral inconsistency).  The
   walk hops by pointer.  A node is known to start at or below [key]
   when the trie gave it ([Art.lookup_le]; anchors never change) or a
   [next] hop reached it (its anchor was just compared): only a node
   reached by a [prev] hop has its anchor read. *)
let jump_node t key =
  let p = Art.lookup_le t.v.art key in
  if Pptr.is_null p then head_ptr t else p

let rec walk t key p hops ~anchored =
  if hops >= 1000 then raise Lost
  else begin
    let pool = pool_of t p in
    let off = Pptr.off p in
    Node.read_header pool off;
    if Node.snap_deleted () || ((not anchored) && Node.compare_anchor pool off key > 0) then
      walk t key (Node.snap_prev ()) (hops + 1) ~anchored:false
    else if not (snap_below_next t key) then
      walk t key (Node.snap_next ()) (hops + 1) ~anchored:true
    else begin
      let bucket = Int.min hops (Array.length t.jump_hist - 1) in
      t.jump_hist.(bucket) <- t.jump_hist.(bucket) + 1;
      p
    end
  end

(* The pointer to the data node whose range covers [key]. *)
let locate t key =
  let jump = jump_node t key in
  let span = Obs.Span.start Obs.Span.Dnode_scan in
  match walk t key jump 0 ~anchored:true with
  | p ->
      Obs.Span.stop span;
      p
  | exception e ->
      Obs.Span.stop span;
      raise e

(* [locate], retried until the walk converges. *)
let rec located t key attempt =
  match locate t key with
  | p -> p
  | exception Lost ->
      Des.Sched.wait "tree walk" (-1) ~attempt (Des.Sched.Fixed 100e-9);
      located t key (attempt + 1)

(* Is the node at [off] in [pool], under its current state, the right
   home for [key]: live, with an anchor <= [key] < its successor's? *)
let covers t pool off key =
  Node.read_header pool off;
  (not (Node.snap_deleted ()))
  && Node.compare_anchor pool off key <= 0
  && snap_below_next t key

(* [f t a b] inside an epoch: the public operations' bracket, built
   without a closure per call. *)
let in_epoch t f a b =
  Epoch.enter t.v.epoch;
  match f t a b with
  | r ->
      Epoch.exit t.v.epoch;
      r
  | exception e ->
      Epoch.exit t.v.epoch;
      raise e

let release t pool off wv = Vlock.release pool off ~gen:t.v.gen ~version:wv

(* Write-lock the node whose range covers [key] (§5.5: all writes lock,
   work, release) and return [f t pool off wv key a] for that node, at
   [off] in [pool], locked at version [wv]: the writers' bracket, like
   [in_epoch] built without a closure, and without a record or a pair
   per call.  The walk's header copy of the node holds its lock word,
   and the lock is taken by a CAS from that word: if it succeeds, the
   node is as the walk saw it (its deleted mark, bitmap and [next]
   change only under its lock, and anchors never change), so the range
   check stands and the copy is the node's header, which [f] completes
   with [Node.find_locked].  Otherwise the lock is taken afresh and the
   range checked on a header copied under it. *)
let rec lock_target t key n f a =
  let p = located t key 0 in
  let pool = pool_of t p and off = Pptr.off p in
  let wv = Vlock.lock_from pool off ~gen:t.v.gen (Node.snap_lock_word ()) in
  if wv >= 0 then f t pool off wv key a
  else
    let wv = Vlock.acquire pool off ~gen:t.v.gen in
    if covers t pool off key then f t pool off wv key a
    else begin
      release t pool off wv;
      Des.Sched.wait "tree moved node" off ~attempt:n (Des.Sched.Fixed 50e-9);
      lock_target t key (n + 1) f a
    end

(* ---------- SMO replay (updater fast path) ---------- *)

(* Fast-path replay for entries produced by a completed split: the
   data layer is already consistent; only the search layer lags. *)
let replay_split_fast t e =
  match Smo_log.read e with
  | Some (_, Smo_log.Split { anchor; _ }) ->
      let new_ptr = Smo_log.aux e in
      assert (not (Pptr.is_null new_ptr));
      ignore (Art.insert t.v.art anchor new_ptr);
      Smo_log.clear t.v.log e
  | _ -> ()

let replay_merge_fast t e =
  match Smo_log.read e with
  | Some (_, Smo_log.Merge { right; anchor; _ }) ->
      (* Delete the anchor only while it still names the merged node:
         a later split of the absorbing node may legitimately reuse
         the anchor key. *)
      (match Art.lookup t.v.art anchor with
      | Some p when Pptr.equal p right -> ignore (Art.delete t.v.art anchor)
      | Some _ | None -> ());
      (* Physically free after two epochs (§5.6); the log entry stays
         until the free is durable so recovery can still find it. *)
      Epoch.defer t.v.epoch (fun () ->
          Heap.free t.data_heap right;
          Smo_log.clear t.v.log e)
  | _ -> ()

let replay_entry_fast t e =
  match Smo_log.read e with
  | Some (_, Smo_log.Split _) -> replay_split_fast t e
  | Some (_, Smo_log.Merge _) -> replay_merge_fast t e
  | None -> ()

let enqueue_smo t e =
  if t.cfg.async_smo && Des.Sched.running () then begin
    Queue.push e t.v.pending_refs;
    match Des.Sched.self () with
    | Some sched -> Des.Sched.Waitq.signal_all sched t.v.uwq
    | None -> ()
  end
  else replay_entry_fast t e

(* ---------- split (§5.6) ---------- *)

let persist_field node rel = Pobj.persist node rel 8

(* The upper half of the node's keys, in sorted order, moves to a new
   right sibling whose anchor is the first moved key.  Three fences
   follow the log entry and the allocation: the new node's lines, the
   link, then the left node's bitmap clear with the right neighbour's
   [prev] (recovery repairs either line alone).  The link lies in the
   left node's line 0 and the bitmap in its line 1, so the clear waits
   for the link's fence: a redo rebuilds an unlinked new node from the
   left node's keys, and a clear persisted without the link would lose
   the moved ones.  A pending key at or after the anchor is written
   into the new node before that node is persisted: it is
   unacknowledged until the split returns, and a redo rebuilds the
   node from the left one, without it.  The walk's copy of the node's
   line 0, completed by [Node.find_locked] with line 1, gives the old
   [next] and the bitmap. *)
let split t node wv key value =
  t.stats.splits <- t.stats.splits + 1;
  let old_next = Node.snap_next () in
  let slots = Node.thread_slots () in
  let total = Node.sort_locked t.lay node slots in
  let half = total / 2 and moved = total - (total / 2) in
  let anchor = Node.sorted_key t.lay slots.(half) in
  let right = Key.compare key anchor >= 0 in
  (* 1. Log the split. *)
  let ts = next_ts t in
  let e = Smo_log.append t.v.log ~ts (Smo_log.Split { left = Node.to_ptr node; anchor }) in
  (* 2. Allocate the new node straight into the log entry (no leak). *)
  let new_ptr =
    Heap.alloc_to t.data_heap ~size:t.lay.Node.node_size ~dest_pool:e.Smo_log.pool
      ~dest_off:(Smo_log.aux_off e) ()
  in
  let nnode = Node.of_ptr t.machine new_ptr in
  (* 3. Build and persist the new node before publishing it. *)
  Node.init_moved t.lay nnode ~gen:t.v.gen ~anchor ~next:old_next ~prev:(Node.to_ptr node)
    ?pending:(if right then Some (key, value) else None)
    slots ~pos:half ~len:moved;
  Pobj.fence nnode;
  (* 4. Publish: link right of the splitting node (atomic), persisted. *)
  Node.set_next node new_ptr;
  persist_field node Node.off_next;
  (* 5. Retire the moved slots (atomic bitmap update) and fix the right
     neighbour's prev pointer, under one fence. *)
  Node.clear_moved node slots ~pos:half ~len:moved;
  if not (Pptr.is_null old_next) then begin
    let rn = Node.of_ptr t.machine old_next in
    Node.set_prev rn new_ptr;
    Pobj.clwb rn Node.off_prev
  end;
  Pobj.fence node;
  (* 6. A pending key below the anchor goes to the left node, whose
     bitmap [clear_moved] left in the scratch buffer. *)
  if not right then begin
    match Node.insert_missed t.lay node.Node.pool node.Node.off key value with
    | Node.Ok -> ()
    | Node.Full | Node.Absent -> assert false
  end;
  (* 7. Search layer: async (off the critical path) or inline. *)
  enqueue_smo t e;
  release t node.Node.pool node.Node.off wv

let split_and_insert t node wv key value =
  let span = Obs.Span.start Obs.Span.Smo in
  match split t node wv key value with
  | () -> Obs.Span.stop span
  | exception e ->
      Obs.Span.stop span;
      raise e

(* ---------- merge (§5.6) ---------- *)

let merge_threshold = Node.entries / 2

let try_merge t node =
  Obs.Span.with_phase Obs.Span.Smo @@ fun () ->
  let nxt = Node.next node in
  if Pptr.is_null nxt then false
  else begin
    let rn = Node.of_ptr t.machine nxt in
    (* [node] is locked, so node.next is stable and rn cannot be
       concurrently merged away (that would need our lock). *)
    if Node.live_count node + Node.live_count rn >= merge_threshold then false
    else begin
      t.stats.merges <- t.stats.merges + 1;
      let rwv = Vlock.acquire rn.Node.pool rn.Node.off ~gen:t.v.gen in
      let anchor = Node.anchor rn in
      let ts = next_ts t in
      let e =
        Smo_log.append t.v.log ~ts
          (Smo_log.Merge { left = Node.to_ptr node; right = nxt; anchor })
      in
      (* Move the right node's pairs into the left (bitmap-atomic). *)
      Node.absorb t.lay ~src:rn ~dst:node;
      (* Logical deletion, then unlink. *)
      Node.set_deleted rn true;
      persist_field rn Node.off_deleted;
      let rnn = Node.next rn in
      Node.set_next node rnn;
      persist_field node Node.off_next;
      if not (Pptr.is_null rnn) then begin
        let rnn_node = Node.of_ptr t.machine rnn in
        Node.set_prev rnn_node (Node.to_ptr node);
        persist_field rnn_node Node.off_prev
      end;
      enqueue_smo t e;
      release t rn.Node.pool rn.Node.off rwv;
      true
    end
  end

(* ---------- public operations ---------- *)

(* One optimistic read-only visit of the node [p] names for [key]
   (§5.3): one copy of lines 0-1, the fingerprint probe, and one
   validation.  On a hit the value is left for [Node.found_value].  A
   validated hit in a live node is the key's current pair, so only a
   miss reads the anchors: a split moves keys while it holds the
   node's lock, a merge marks the absorbed node deleted before it
   releases that node's lock, and the epoch keeps a node [p] named
   from being reused, so a live node at a validated version holds no
   key it does not own. *)
let found = 0

let absent = 1

let elsewhere = 2 (* [node] does not hold [key] now: look for its home *)

let torn = 3 (* a hit that failed validation *)

let visit t p key =
  let pool = pool_of t p in
  let off = Pptr.off p in
  let v = Node.begin_read pool off ~gen:t.v.gen in
  if Node.snap_deleted () then elsewhere
  else if Node.probe t.lay pool off key >= 0 then
    if Vlock.validate pool off ~gen:t.v.gen ~version:v then found else torn
  else if
    Node.compare_anchor pool off key <= 0
    && snap_below_next t key
    && Vlock.validate pool off ~gen:t.v.gen ~version:v
  then absent
  else elsewhere

let visiting t p key =
  let span = Obs.Span.start Obs.Span.Dnode_scan in
  match visit t p key with
  | r ->
      Obs.Span.stop span;
      r
  | exception e ->
      Obs.Span.stop span;
      raise e

(* Lookup fast path (§5.3): go straight to the search layer's jump
   node and search it.  Every live key exists in exactly one live data
   node, so a validated hit needs no range check at all (see [visit]):
   a hit reads the node's lines 0-1, the entry and the lock word, and
   neither anchor.  Only a miss reads the bounds; a deleted jump node,
   or one that does not cover the key, falls back to the sibling walk.
   The attempts are top-level functions, not closures: lookups are
   half of every workload. *)
let rec lookup_attempt t key n ~use_jump =
  if use_jump then lookup_in t key n (jump_node t key) ~direct:true
  else
    match locate t key with
    | exception Lost -> lookup_retry t key n
    | p -> lookup_in t key n p ~direct:false

and lookup_retry t key n =
  t.stats.reader_retries <- t.stats.reader_retries + 1;
  Des.Sched.wait "tree lookup" (-1) ~attempt:n (Des.Sched.Fixed 50e-9);
  lookup_attempt t key (n + 1) ~use_jump:false

and lookup_in t key n p ~direct =
  let r = visiting t p key in
  if r = found || r = absent then begin
    if direct then t.jump_hist.(0) <- t.jump_hist.(0) + 1;
    if r = found then Some (Node.found_value ()) else None
  end
  else if r = torn || not direct then lookup_retry t key n
  else lookup_attempt t key n ~use_jump:false

let lookup t key = in_epoch t (fun t key () -> lookup_attempt t key 0 ~use_jump:true) key ()

(* The writers, on the node at [off] in [pool] locked at [wv]: only a
   split or a merge builds the node's record.  [lock_target] leaves the
   node's header copied as it is under the lock, [Node.find_locked]
   adds line 1, and the write takes the slot and the bitmap from that
   copy. *)
let insert_at t pool off wv key value =
  let slot = Node.find_locked t.lay pool off key in
  if slot >= 0 then begin
    Node.update_found t.lay pool off slot key value;
    release t pool off wv
  end
  else
    match Node.insert_missed t.lay pool off key value with
    | Node.Ok -> release t pool off wv
    | Node.Full -> split_and_insert t { Node.pool; off } wv key value
    | Node.Absent -> assert false

let insert_locked t key value =
  Smo_log.reserve t.v.log t.v.epoch;
  lock_target t key 0 insert_at value

let insert t key value = in_epoch t insert_locked key value

let update_at t pool off wv key value =
  let slot = Node.find_locked t.lay pool off key in
  if slot >= 0 then Node.update_found t.lay pool off slot key value;
  release t pool off wv;
  slot >= 0

let update_locked t key value = lock_target t key 0 update_at value

let update t key value = in_epoch t update_locked key value

(* Merge [node] into its left neighbour (fresh left-then-right lock
   acquisition, so lock order stays left-to-right). *)
let try_merge_left t node_ptr =
  let node = Node.of_ptr t.machine node_ptr in
  let p = Node.prev node in
  if not (Pptr.is_null p) then begin
    let pnode = Node.of_ptr t.machine p in
    let wv = Vlock.acquire pnode.Node.pool pnode.Node.off ~gen:t.v.gen in
    if (not (Node.is_deleted pnode)) && Pptr.equal (Node.next pnode) node_ptr then
      ignore (try_merge t pnode);
    release t pnode.Node.pool pnode.Node.off wv
  end

let delete_at t pool off wv key () =
  let slot = Node.find_locked t.lay pool off key in
  if slot < 0 then begin
    release t pool off wv;
    false
  end
  else begin
    Node.delete_found t.lay pool off slot;
    let node = { Node.pool; off } in
    let merged_right = try_merge t node in
    let small = 2 * Node.live_count node < merge_threshold in
    release t pool off wv;
    if (not merged_right) && small then try_merge_left t (Node.to_ptr node);
    true
  end

let delete_locked t key () =
  Smo_log.reserve t.v.log t.v.epoch;
  lock_target t key 0 delete_at ()

let delete t key = in_epoch t delete_locked key ()

(* Range scan (§5.4): per-node optimistic read; each node's batch is
   validated against its version before being committed to the
   result. *)
let scan_locked t key count =
  let acc = ref [] and taken = ref 0 in
  let rec scan_node node low attempt =
    if !taken >= count then ()
    else begin
      let v = Vlock.begin_read node.Node.pool node.Node.off ~gen:t.v.gen in
      if Node.is_deleted node then
        (* jump to the surviving left node *)
        scan_node (Node.of_ptr t.machine (Node.prev node)) low attempt
      else begin
        let batch = ref [] and batch_n = ref 0 in
        let budget = count - !taken in
        (* Keys the scan has passed can come round again: a node that
           split after [locate] found it hands the keys from its new
           bound up to [key] to its successor, and a node merged into
           its left neighbour sends the scan back to keys it emitted.
           So a key is kept only above the last one emitted (at or
           above [key] before the first). *)
        let keep k value =
          let passed =
            match (!batch, !acc) with
            | (last, _) :: _, _ | [], (last, _) :: _ -> Key.compare k last <= 0
            | [], [] -> Key.compare k key < 0
          in
          if passed then true
          else begin
            batch := (k, value) :: !batch;
            incr batch_n;
            !batch_n < budget
          end
        in
        ignore (Node.scan_from t.lay node ~gen:t.v.gen low ~f:keep);
        let nxt = Node.next node in
        if Vlock.validate node.Node.pool node.Node.off ~gen:t.v.gen ~version:v then begin
          (* [batch] is newest-first; keep [acc] globally newest-first *)
          acc := !batch @ !acc;
          taken := !taken + !batch_n;
          if !taken < count && not (Pptr.is_null nxt) then
            scan_node (Node.of_ptr t.machine nxt) "" 0
        end
        else begin
          t.stats.reader_retries <- t.stats.reader_retries + 1;
          Des.Sched.wait "tree scan" node.Node.off ~attempt Des.Sched.Now;
          scan_node node low (attempt + 1)
        end
      end
    end
  in
  scan_node (Node.of_ptr t.machine (located t key 0)) key 0;
  List.rev !acc

let scan t key count = in_epoch t scan_locked key count

(* ---------- background updater (§5.6) ---------- *)

let drain_smo t =
  Obs.Span.with_phase Obs.Span.Log_replay @@ fun () ->
  let batch = ref [] in
  while not (Queue.is_empty t.v.pending_refs) do
    batch := Queue.pop t.v.pending_refs :: !batch
  done;
  let stamped =
    List.filter_map (fun e -> Option.map (fun (ts, _) -> (ts, e)) (Smo_log.read e)) !batch
  in
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) stamped in
  List.iter (fun (_, e) -> replay_entry_fast t e) sorted;
  Epoch.try_advance t.v.epoch

let updater_loop t =
  let rec loop () =
    if Queue.is_empty t.v.pending_refs then begin
      if t.v.shutdown then ()
      else begin
        Des.Sched.Waitq.wait t.v.uwq;
        loop ()
      end
    end
    else begin
      drain_smo t;
      loop ()
    end
  in
  loop ();
  (* Shutdown: let the epoch machinery run the deferred frees. *)
  Epoch.try_advance t.v.epoch;
  Epoch.try_advance t.v.epoch;
  Epoch.try_advance t.v.epoch;
  (* The request is consumed, so a later updater on this tree runs. *)
  t.v.shutdown <- false

let request_shutdown t =
  t.v.shutdown <- true;
  match Des.Sched.self () with
  | Some sched -> Des.Sched.Waitq.signal_all sched t.v.uwq
  | None -> ()

let smo_backlog t = Smo_log.active_count t.v.log

(* ---------- recovery (§5.9) ---------- *)

(* The index of the first of the [n] sorted [slots] whose key is at
   least [k], or [n]. *)
let first_at_least t slots n k =
  let rec go i = if i < n && Node.compare_sorted_key t.lay slots.(i) k < 0 then go (i + 1) else i in
  go 0

let recover_split t e left anchor =
  let new_ptr = Smo_log.aux e in
  if Pptr.is_null new_ptr then
    (* Interrupted before allocation: nothing durable happened and the
       triggering insert was never acknowledged. *)
    Smo_log.clear t.v.log e
  else begin
    let node = Node.of_ptr t.machine left in
    let nnode = Node.of_ptr t.machine new_ptr in
    (* The link is written only after the new node is fully persisted,
       so a missing link means we must rebuild the new node; the redo
       persists the link before the clear below, as the split does. *)
    let slots = Array.make Node.entries 0 in
    if not (Pptr.equal (Node.next node) new_ptr) then begin
      let total = Node.sort_live t.lay node slots in
      let first = first_at_least t slots total anchor in
      let old_next = Node.next node in
      Node.init_moved t.lay nnode ~gen:t.v.gen ~anchor ~next:old_next ~prev:left slots ~pos:first
        ~len:(total - first);
      Pobj.fence nnode;
      Node.set_next node new_ptr;
      persist_field node Node.off_next
    end;
    (* Drop any moved keys still present in the left node, and fix the
       right neighbour's prev pointer, under one fence. *)
    let total = Node.sort_live t.lay node slots in
    let first = first_at_least t slots total anchor in
    let cleared = first < total in
    if cleared then Node.clear_moved node slots ~pos:first ~len:(total - first);
    let rn = Node.next nnode in
    let relinked =
      if Pptr.is_null rn then false
      else begin
        let rn_node = Node.of_ptr t.machine rn in
        let stale = not (Pptr.equal (Node.prev rn_node) new_ptr) in
        if stale then begin
          Node.set_prev rn_node new_ptr;
          Pobj.clwb rn_node Node.off_prev
        end;
        stale
      end
    in
    if cleared || relinked then Pobj.fence node;
    (* Search layer. *)
    (match Art.lookup t.v.art anchor with
    | Some p when Pptr.equal p new_ptr -> ()
    | Some _ | None -> ignore (Art.insert t.v.art anchor new_ptr));
    Smo_log.clear t.v.log e
  end

let recover_merge t e left right anchor =
  let node = Node.of_ptr t.machine left in
  let rn = Node.of_ptr t.machine right in
  (* Re-copy any keys that did not make it into the left node (key
     ranges are disjoint, so membership is the completion test). *)
  List.iter
    (fun (k, v) ->
      if Node.find t.lay node.Node.pool node.Node.off k < 0 then
        match Node.insert t.lay node.Node.pool node.Node.off k v with
        | Node.Ok -> ()
        | Node.Full | Node.Absent -> assert false)
    (Node.live_entries t.lay rn);
  if not (Node.is_deleted rn) then begin
    Node.set_deleted rn true;
    persist_field rn Node.off_deleted
  end;
  if Pptr.equal (Node.next node) right then begin
    Node.set_next node (Node.next rn);
    persist_field node Node.off_next
  end;
  let rnn = Node.next rn in
  if not (Pptr.is_null rnn) then begin
    let rnn_node = Node.of_ptr t.machine rnn in
    if Pptr.equal (Node.prev rnn_node) right then begin
      Node.set_prev rnn_node left;
      persist_field rnn_node Node.off_prev
    end
  end;
  (match Art.lookup t.v.art anchor with
  | Some p when Pptr.equal p right -> ignore (Art.delete t.v.art anchor)
  | Some _ | None -> ());
  Heap.free t.data_heap right;
  Smo_log.clear t.v.log e

(* Walk the data layer, inserting every live anchor (DRAM search
   layer rebuild). *)
let rebuild_search_layer t =
  let rec go ptr =
    if not (Pptr.is_null ptr) then begin
      let node = Node.of_ptr t.machine ptr in
      if not (Node.is_deleted node) then
        ignore (Art.insert t.v.art (Node.anchor node) ptr);
      go (Node.next node)
    end
  in
  go (head_ptr t)

let recover t =
  Obs.Span.with_phase Obs.Span.Recovery @@ fun () ->
  Heap.recover t.data_heap;
  Heap.recover t.search_heap;
  t.v <- start t.machine ~search_heap:t.search_heap ~meta:t.meta ~log_pools:t.log_pools;
  (* The whole trie of a DRAM search layer was wiped with its pool. *)
  if t.cfg.search_layer_dram then Art.reset t.v.art;
  ignore (Art.recover t.v.art);
  if t.cfg.search_layer_dram then rebuild_search_layer t;
  (* Replay outstanding SMOs in timestamp order. *)
  let entries = ref [] in
  Smo_log.iter_active t.v.log ~f:(fun e ->
      match Smo_log.read e with
      | Some (ts, payload) -> entries := (ts, e, payload) :: !entries
      | None -> ());
  let sorted = List.sort (fun (a, _, _) (b, _, _) -> compare a b) !entries in
  List.iter
    (fun (_, e, payload) ->
      match payload with
      | Smo_log.Split { left; anchor } -> recover_split t e left anchor
      | Smo_log.Merge { left; right; anchor } -> recover_merge t e left right anchor)
    sorted;
  List.length sorted

(* ---------- integrity checking (tests, §6.8) ---------- *)

let check_invariants t =
  let fail fmt = Printf.ksprintf failwith fmt in
  (* data layer: anchors strictly increasing, prev links consistent,
     every key within its node's range *)
  let rec walk ptr prev_ptr last_anchor nodes =
    if Pptr.is_null ptr then nodes
    else begin
      let node = Node.of_ptr t.machine ptr in
      if Node.is_deleted node then fail "reachable node is marked deleted";
      let anchor = Node.anchor node in
      (match last_anchor with
      | Some a when Key.compare a anchor >= 0 ->
          fail "anchors not strictly increasing at %s" anchor
      | _ -> ());
      if not (Pptr.equal (Node.prev node) prev_ptr) then fail "prev pointer mismatch";
      let nxt = Node.next node in
      let upper =
        if Pptr.is_null nxt then None else Some (Node.anchor (Node.of_ptr t.machine nxt))
      in
      List.iter
        (fun (k, _) ->
          if Key.compare k anchor < 0 then fail "key below anchor";
          match upper with
          | Some u when Key.compare k u >= 0 -> fail "key above next anchor"
          | _ -> ())
        (Node.live_entries t.lay node);
      walk nxt ptr (Some anchor) ((anchor, ptr) :: nodes)
    end
  in
  let nodes = List.rev (walk (head_ptr t) Pptr.null None []) in
  (* search layer: every mapping must point to a live data node whose
     anchor is the mapped key (after drain, it must be complete). *)
  if smo_backlog t = 0 then
    List.iter
      (fun (anchor, ptr) ->
        match Art.lookup t.v.art anchor with
        | Some p when Pptr.equal p ptr -> ()
        | Some _ -> fail "search layer maps %s to the wrong node" anchor
        | None -> fail "anchor %s missing from search layer" anchor)
      nodes;
  List.length nodes

(* Enumerate everything (tests). *)
let to_list t =
  let rec go ptr acc =
    if Pptr.is_null ptr then List.rev acc
    else begin
      let node = Node.of_ptr t.machine ptr in
      let entries = List.sort compare (Node.live_entries t.lay node) in
      go (Node.next node) (List.rev_append entries acc)
    end
  in
  go (head_ptr t) []

let cardinal t = List.length (to_list t)
