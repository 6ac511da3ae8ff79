(* PACTree (paper §4-§5): a persistent hybrid range index.

   - Data layer: a doubly-linked list of slotted {!Data_node}s.
   - Search layer: {!Art} (PDL-ART) indexing anchor keys.
   - The two layers are decoupled: splits and merges log to the
     per-thread {!Smo_log} and return; a background updater replays
     the log into the search layer (§4.3).  Readers tolerate the
     ephemeral inconsistency by walking the data layer's sibling
     pointers from the "jump node" (§5.3).

   Configuration toggles expose the paper's factor analysis (Fig 12):
   per-NUMA pools, selective persistence, async vs synchronous SMO,
   and a DRAM-resident search layer. *)

module Pool = Nvm.Pool
module Machine = Nvm.Machine
module Heap = Pmalloc.Heap
module Pptr = Pmalloc.Pptr
module Node = Data_node

type config = {
  key_inline : int;  (** 8 (integer keys) or 32 (string keys) *)
  numa_pools : int;  (** 0 = one pool per NUMA domain (default) *)
  async_smo : bool;  (** asynchronous search-layer update (§4.3) *)
  selective_persistence : bool;  (** do not persist permutation arrays (§4.4) *)
  search_layer_dram : bool;  (** place the search layer in DRAM (ablation) *)
  alloc_kind : Heap.kind;
  data_capacity : int;
  search_capacity : int;
}

let default_config =
  {
    key_inline = 8;
    numa_pools = 0;
    async_smo = true;
    selective_persistence = true;
    search_layer_dram = false;
    alloc_kind = Heap.Pmdk;
    data_capacity = Pool.max_capacity;
    search_capacity = Pool.max_capacity;
  }

type stats = {
  mutable splits : int;
  mutable merges : int;
  mutable reader_retries : int;
}

type t = {
  machine : Machine.t;
  cfg : config;
  lay : Node.layout;
  data_heap : Heap.t;
  search_heap : Heap.t;
  log : Smo_log.t;
  meta : Pool.t;
  art : Art.t;
  epoch : Epoch.t;
  mutable gen : int;
  (* updater coordination (volatile) *)
  uwq : Des.Sched.Waitq.t;
  pending_refs : Smo_log.entry_ref Queue.t;
  mutable smo_hint : bool;
  mutable shutdown : bool;
  mutable updater_running : bool;
  jump_hist : int array; (* §6.7: hops from jump node to target *)
  stats : stats;
}

(* Tree-private meta fields live just past the trie's meta region. *)
let round_up x a = (x + a - 1) / a * a

let tree_meta_base = round_up Art.meta_size 64

let off_head = tree_meta_base

let off_ts = tree_meta_base + 8

let epoch t = t.epoch

let machine t = t.machine

let data_heap t = t.data_heap

let search_heap t = t.search_heap

let layout t = t.lay

let stats t = t.stats

let art_stats t = Art.stats t.art

let jump_histogram t = Array.copy t.jump_hist

let create machine ?(cfg = default_config) () =
  let numa_count = Machine.numa_count machine in
  let npools = if cfg.numa_pools = 0 then numa_count else cfg.numa_pools in
  let data_heap =
    Heap.create machine ~kind:cfg.alloc_kind ~name:"pactree.data" ~numa_pools:npools
      ~capacity:cfg.data_capacity ()
  in
  let search_heap =
    (* A DRAM search layer uses volatile heap metadata too: there is
       nothing crash-consistent about DRAM (the ablation's point). *)
    let kind = if cfg.search_layer_dram then Heap.Volatile_meta else cfg.alloc_kind in
    Heap.create machine ~volatile_pool:cfg.search_layer_dram ~kind ~name:"pactree.search"
      ~numa_pools:npools ~capacity:cfg.search_capacity ()
  in
  let log_pools =
    Array.init npools (fun i ->
        Pool.create machine
          ~name:(Printf.sprintf "pactree.log.%d" i)
          ~numa:(i mod numa_count) ~capacity:Smo_log.region_size ())
  in
  let log = Smo_log.create log_pools ~base:0 in
  let meta =
    Pool.create machine ~name:"pactree.meta" ~numa:0 ~capacity:(tree_meta_base + 64) ()
  in
  let lay =
    Node.layout ~persist_perm:(not cfg.selective_persistence) ~key_inline:cfg.key_inline ()
  in
  let key_of_leaf ptr = Key.to_radix (Node.anchor (Node.of_ptr machine ptr)) in
  let compare_leaf ptr rkey = Node.compare_anchor_radix (Node.of_ptr machine ptr) rkey in
  let epoch = Epoch.create () in
  let art = Art.create ~heap:search_heap ~meta ~epoch ~key_of_leaf ~compare_leaf in
  let t =
    {
      machine;
      cfg;
      lay;
      data_heap;
      search_heap;
      log;
      meta;
      art;
      epoch;
      gen = Art.generation art;
      uwq = Des.Sched.Waitq.create ();
      pending_refs = Queue.create ();
      smo_hint = false;
      shutdown = false;
      updater_running = false;
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
    Node.init lay head ~gen:t.gen ~anchor:"" ~next:Pptr.null ~prev:Pptr.null;
    Pobj.persist head 0 lay.Node.node_size;
    ignore (Art.insert art (Key.to_radix "") ptr)
  end;
  t

let head_node t = Node.of_ptr t.machine (Pobj.read_int (Pobj.make t.meta 0) off_head)

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

(* Does [node], as last copied to the scratch buffer, host [key]: is
   it live with an anchor <= [key]? *)
let snap_hosts node key = (not (Node.snap_deleted ())) && Node.snap_compare_anchor node key <= 0

(* ... and is [key] below the anchor of its copied successor? *)
let snap_below_next t key =
  let nxt = Node.snap_next () in
  Pptr.is_null nxt || Node.compare_anchor (Node.of_ptr t.machine nxt) key > 0

(* From the search-layer jump node, walk sibling pointers until the
   node whose [anchor, next.anchor) range covers [key].  Unsynchronised
   search layers only cost extra hops (ephemeral inconsistency). *)
let jump_node t rkey =
  let p = Art.lookup_le t.art rkey in
  if Pptr.is_null p then head_node t else Node.of_ptr t.machine p

let rec walk t key node hops =
  if hops >= 1000 then raise Lost
  else begin
    Node.read_header node;
    if not (snap_hosts node key) then
      walk t key (Node.of_ptr t.machine (Node.snap_prev ())) (hops + 1)
    else if not (snap_below_next t key) then
      walk t key (Node.of_ptr t.machine (Node.snap_next ())) (hops + 1)
    else begin
      let bucket = min hops (Array.length t.jump_hist - 1) in
      t.jump_hist.(bucket) <- t.jump_hist.(bucket) + 1;
      node
    end
  end

let locate t key =
  let jump = jump_node t (Key.to_radix key) in
  let span = Obs.Span.start Obs.Span.Dnode_scan in
  match walk t key jump 0 with
  | node ->
      Obs.Span.stop span;
      node
  | exception e ->
      Obs.Span.stop span;
      raise e

(* Is [node], under its current state, the right home for [key]? *)
let covers t node key =
  Node.read_header node;
  snap_hosts node key && snap_below_next t key

(* [f t a b] inside an epoch: the public operations' bracket, built
   without a closure per call. *)
let in_epoch t f a b =
  Epoch.enter t.epoch;
  match f t a b with
  | r ->
      Epoch.exit t.epoch;
      r
  | exception e ->
      Epoch.exit t.epoch;
      raise e

(* Write-lock the target node (§5.5: all writes lock, work, release). *)
let rec lock_target t key n =
  if n > 10_000 then failwith "Tree: writer livelock";
  match locate t key with
  | exception Lost ->
      Des.Sched.delay 100e-9;
      lock_target t key (n + 1)
  | node ->
      let h = Node.lock_handle node in
      let wv = Vlock.acquire h ~gen:t.gen in
      if covers t node key then (node, wv)
      else begin
        Vlock.release h ~gen:t.gen ~version:wv;
        Des.Sched.delay 50e-9;
        lock_target t key (n + 1)
      end

let locked_target t key = lock_target t key 0

let release t node wv = Vlock.release (Node.lock_handle node) ~gen:t.gen ~version:wv

(* ---------- SMO replay (updater fast path) ---------- *)

(* Fast-path replay for entries produced by a completed split: the
   data layer is already consistent; only the search layer lags. *)
let replay_split_fast t e =
  match Smo_log.read e with
  | Some (_, Smo_log.Split { anchor; _ }) ->
      let new_ptr = Smo_log.aux e in
      assert (not (Pptr.is_null new_ptr));
      ignore (Art.insert t.art (Key.to_radix anchor) new_ptr);
      Smo_log.clear e
  | _ -> ()

let replay_merge_fast t e =
  match Smo_log.read e with
  | Some (_, Smo_log.Merge { right; anchor; _ }) ->
      (* Delete the anchor only while it still names the merged node:
         a later split of the absorbing node may legitimately reuse
         the anchor key. *)
      (match Art.lookup t.art (Key.to_radix anchor) with
      | Some p when Pptr.equal p right -> ignore (Art.delete t.art (Key.to_radix anchor))
      | Some _ | None -> ());
      (* Physically free after two epochs (§5.6); the log entry stays
         until the free is durable so recovery can still find it. *)
      Epoch.defer t.epoch (fun () ->
          Heap.free t.data_heap right;
          Smo_log.clear e)
  | _ -> ()

let replay_entry_fast t e =
  match Smo_log.read e with
  | Some (_, Smo_log.Split _) -> replay_split_fast t e
  | Some (_, Smo_log.Merge _) -> replay_merge_fast t e
  | None -> ()

let enqueue_smo t e =
  if t.cfg.async_smo && (t.updater_running || Des.Sched.running ()) then begin
    Queue.push e t.pending_refs;
    t.smo_hint <- true;
    match Des.Sched.self () with
    | Some sched -> Des.Sched.Waitq.signal_all sched t.uwq
    | None -> ()
  end
  else replay_entry_fast t e

(* ---------- split (§5.6) ---------- *)

let persist_field node rel = Pobj.persist node rel 8

(* The upper half of the node's keys, in sorted order, moves to a new
   right sibling whose anchor is the first moved key. *)
let split t node wv key value =
  t.stats.splits <- t.stats.splits + 1;
  let slots = Node.thread_slots () in
  let total = Node.sort_live t.lay node slots in
  let half = total / 2 and moved = total - (total / 2) in
  let anchor = Node.sorted_key t.lay slots.(half) in
  (* 1. Log the split. *)
  let ts = next_ts t in
  let e = Smo_log.append t.log ~ts (Smo_log.Split { left = Node.to_ptr node; anchor }) in
  (* 2. Allocate the new node straight into the log entry (no leak). *)
  let dest_pool, dest_off = Smo_log.aux_field e in
  let new_ptr = Heap.alloc_to t.data_heap ~size:t.lay.Node.node_size ~dest_pool ~dest_off () in
  let nnode = Node.of_ptr t.machine new_ptr in
  (* 3. Build and persist the new node before publishing it. *)
  let old_next = Node.next node in
  Node.init t.lay nnode ~gen:t.gen ~anchor ~next:old_next ~prev:(Node.to_ptr node);
  Node.copy_into t.lay ~src:node ~dst:nnode slots ~pos:half ~len:moved;
  Pobj.persist nnode 0 t.lay.Node.node_size;
  (* 4. Publish: link right of the splitting node (atomic). *)
  Node.set_next node new_ptr;
  persist_field node Node.off_next;
  (* 5. Retire the moved slots (atomic bitmap update). *)
  Node.clear_slots node (Node.slot_mask slots ~pos:half ~len:moved);
  (* 6. Fix the right neighbour's prev pointer. *)
  if not (Pptr.is_null old_next) then begin
    let rn = Node.of_ptr t.machine old_next in
    Node.set_prev rn new_ptr;
    persist_field rn Node.off_prev
  end;
  (* 7. Search layer: async (off the critical path) or inline. *)
  enqueue_smo t e;
  (* 8. Finally place the pending key-value pair. *)
  if Key.compare key anchor < 0 then begin
    (match Node.insert t.lay node key value with
    | Node.Ok -> ()
    | Node.Full | Node.Absent -> assert false);
    release t node wv
  end
  else begin
    let nwv = Vlock.acquire (Node.lock_handle nnode) ~gen:t.gen in
    (match Node.insert t.lay nnode key value with
    | Node.Ok -> ()
    | Node.Full | Node.Absent -> assert false);
    release t nnode nwv;
    release t node wv
  end

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
      let rwv = Vlock.acquire (Node.lock_handle rn) ~gen:t.gen in
      let anchor = Node.anchor rn in
      let ts = next_ts t in
      let e =
        Smo_log.append t.log ~ts
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
      Vlock.release (Node.lock_handle rn) ~gen:t.gen ~version:rwv;
      true
    end
  end

(* ---------- public operations ---------- *)

(* One optimistic read-only visit of [node] for [key] (§5.3): one copy
   of lines 0-1, the fingerprint probe, and one validation.  On a hit
   the value is left for [Node.found_value]. *)
let found = 0

let absent = 1

let elsewhere = 2 (* [node] does not hold [key] now: look for its home *)

let torn = 3 (* a hit that failed validation *)

let visit t node key direct =
  let h = Node.lock_handle node in
  let v = Node.begin_read node ~gen:t.gen in
  if direct && not (snap_hosts node key) then elsewhere
  else if Node.probe t.lay node key >= 0 then
    if Vlock.validate h ~gen:t.gen ~version:v then found else torn
  else if
    (* a direct visit has checked [snap_hosts] already *)
    (direct || snap_hosts node key)
    && snap_below_next t key
    && Vlock.validate h ~gen:t.gen ~version:v
  then absent
  else elsewhere

let visiting t node key direct =
  let span = Obs.Span.start Obs.Span.Dnode_scan in
  match visit t node key direct with
  | r ->
      Obs.Span.stop span;
      r
  | exception e ->
      Obs.Span.stop span;
      raise e

(* Lookup fast path (§5.3): go straight to the search layer's jump
   node and search it.  Every live key exists in exactly one data
   node, so a validated hit needs no range check at all — in the
   common case the lookup touches no sibling.  Only a miss (or a jump
   node that does not cover the key) falls back to the bounds check
   and the sibling walk.  The attempts are top-level functions, not
   closures: lookups are half of every workload. *)
let rec lookup_attempt t key rkey n ~use_jump =
  if n > 10_000 then failwith "Tree: reader livelock";
  if use_jump then lookup_in t key rkey n (jump_node t rkey) ~direct:true
  else
    match locate t key with
    | exception Lost -> lookup_retry t key rkey n
    | node -> lookup_in t key rkey n node ~direct:false

and lookup_retry t key rkey n =
  t.stats.reader_retries <- t.stats.reader_retries + 1;
  Des.Sched.delay 50e-9;
  lookup_attempt t key rkey (n + 1) ~use_jump:false

and lookup_in t key rkey n node ~direct =
  let r = visiting t node key direct in
  if r = found || r = absent then begin
    if direct then t.jump_hist.(0) <- t.jump_hist.(0) + 1;
    if r = found then Some (Node.found_value ()) else None
  end
  else if r = torn || not direct then lookup_retry t key rkey n
  else lookup_attempt t key rkey n ~use_jump:false

let lookup t key =
  in_epoch t (fun t key () -> lookup_attempt t key (Key.to_radix key) 0 ~use_jump:true) key ()

let insert_locked t key value =
  let node, wv = locked_target t key in
  if Node.find t.lay node key >= 0 then begin
    (match Node.update t.lay node key value with
    | Node.Ok -> ()
    | Node.Full | Node.Absent -> assert false);
    release t node wv
  end
  else
    match Node.insert t.lay node key value with
    | Node.Ok -> release t node wv
    | Node.Full -> split_and_insert t node wv key value
    | Node.Absent -> assert false

let insert t key value = in_epoch t insert_locked key value

let update_locked t key value =
  let node, wv = locked_target t key in
  let r = Node.update t.lay node key value in
  release t node wv;
  r = Node.Ok

let update t key value = in_epoch t update_locked key value

(* Merge [node] into its left neighbour (fresh left-then-right lock
   acquisition, so lock order stays left-to-right). *)
let try_merge_left t node_ptr =
  let node = Node.of_ptr t.machine node_ptr in
  let p = Node.prev node in
  if not (Pptr.is_null p) then begin
    let pnode = Node.of_ptr t.machine p in
    let h = Node.lock_handle pnode in
    let wv = Vlock.acquire h ~gen:t.gen in
    if (not (Node.is_deleted pnode)) && Pptr.equal (Node.next pnode) node_ptr then
      ignore (try_merge t pnode);
    Vlock.release h ~gen:t.gen ~version:wv
  end

let delete_locked t key () =
  let node, wv = locked_target t key in
  match Node.delete t.lay node key with
  | Node.Absent ->
      release t node wv;
      false
  | Node.Ok ->
      let merged_right = try_merge t node in
      let small = 2 * Node.live_count node < merge_threshold in
      release t node wv;
      if (not merged_right) && small then try_merge_left t (Node.to_ptr node);
      true
  | Node.Full -> assert false

let delete t key = in_epoch t delete_locked key ()

(* Range scan (§5.4): per-node optimistic read; each node's batch is
   validated against its version before being committed to the
   result. *)
let scan_locked t key count =
  let acc = ref [] and taken = ref 0 in
  let rec scan_node node low attempt =
    if !taken >= count then ()
    else if attempt > 10_000 then failwith "Tree: scan livelock"
    else begin
      let h = Node.lock_handle node in
      let v = Vlock.begin_read h ~gen:t.gen in
      if Node.is_deleted node then
        (* jump to the surviving left node *)
        scan_node (Node.of_ptr t.machine (Node.prev node)) low (attempt + 1)
      else begin
        let batch = ref [] and batch_n = ref 0 in
        let budget = count - !taken in
        let keep k value =
          batch := (k, value) :: !batch;
          incr batch_n;
          !batch_n < budget
        in
        ignore (Node.scan_from t.lay node low ~f:keep);
        let nxt = Node.next node in
        if Vlock.validate h ~gen:t.gen ~version:v then begin
          (* [batch] is newest-first; keep [acc] globally newest-first *)
          acc := !batch @ !acc;
          taken := !taken + !batch_n;
          if !taken < count && not (Pptr.is_null nxt) then
            scan_node (Node.of_ptr t.machine nxt) "" 0
        end
        else begin
          t.stats.reader_retries <- t.stats.reader_retries + 1;
          scan_node node low (attempt + 1)
        end
      end
    end
  in
  let rec locate_retry n =
    if n > 10_000 then failwith "Tree: scan livelock";
    match locate t key with
    | node -> node
    | exception Lost ->
        Des.Sched.delay 100e-9;
        locate_retry (n + 1)
  in
  scan_node (locate_retry 0) key 0;
  List.rev !acc

let scan t key count = in_epoch t scan_locked key count

(* ---------- background updater (§5.6) ---------- *)

let drain_smo t =
  Obs.Span.with_phase Obs.Span.Log_replay @@ fun () ->
  let batch = ref [] in
  while not (Queue.is_empty t.pending_refs) do
    batch := Queue.pop t.pending_refs :: !batch
  done;
  let stamped =
    List.filter_map (fun e -> Option.map (fun (ts, _) -> (ts, e)) (Smo_log.read e)) !batch
  in
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) stamped in
  List.iter (fun (_, e) -> replay_entry_fast t e) sorted;
  Epoch.try_advance t.epoch

let updater_loop t =
  t.updater_running <- true;
  let rec loop () =
    if Queue.is_empty t.pending_refs && not t.smo_hint then begin
      if t.shutdown then ()
      else begin
        Des.Sched.Waitq.wait t.uwq;
        loop ()
      end
    end
    else begin
      t.smo_hint <- false;
      drain_smo t;
      loop ()
    end
  in
  loop ();
  (* Shutdown: let the epoch machinery run the deferred frees. *)
  Epoch.try_advance t.epoch;
  Epoch.try_advance t.epoch;
  Epoch.try_advance t.epoch;
  t.updater_running <- false

let request_shutdown t =
  t.shutdown <- true;
  match Des.Sched.self () with
  | Some sched -> Des.Sched.Waitq.signal_all sched t.uwq
  | None -> ()

let reset_shutdown t = t.shutdown <- false

let smo_backlog t = Queue.length t.pending_refs + Smo_log.active_count t.log

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
    Smo_log.clear e
  else begin
    let node = Node.of_ptr t.machine left in
    let nnode = Node.of_ptr t.machine new_ptr in
    (* The link is written only after the new node is fully persisted,
       so a missing link means we must rebuild the new node. *)
    let slots = Array.make Node.entries 0 in
    if not (Pptr.equal (Node.next node) new_ptr) then begin
      let total = Node.sort_live t.lay node slots in
      let first = first_at_least t slots total anchor in
      let old_next = Node.next node in
      Node.init t.lay nnode ~gen:t.gen ~anchor ~next:old_next ~prev:left;
      Node.copy_into t.lay ~src:node ~dst:nnode slots ~pos:first ~len:(total - first);
      Pobj.persist nnode 0 t.lay.Node.node_size;
      Node.set_next node new_ptr;
      persist_field node Node.off_next
    end;
    (* Drop any moved keys still present in the left node. *)
    let total = Node.sort_live t.lay node slots in
    let first = first_at_least t slots total anchor in
    if first < total then
      Node.clear_slots node (Node.slot_mask slots ~pos:first ~len:(total - first));
    (* Fix the right neighbour's prev pointer. *)
    let rn = Node.next nnode in
    if not (Pptr.is_null rn) then begin
      let rn_node = Node.of_ptr t.machine rn in
      if not (Pptr.equal (Node.prev rn_node) new_ptr) then begin
        Node.set_prev rn_node new_ptr;
        persist_field rn_node Node.off_prev
      end
    end;
    (* Search layer. *)
    (match Art.lookup t.art (Key.to_radix anchor) with
    | Some p when Pptr.equal p new_ptr -> ()
    | Some _ | None -> ignore (Art.insert t.art (Key.to_radix anchor) new_ptr));
    Smo_log.clear e
  end

let recover_merge t e left right anchor =
  let node = Node.of_ptr t.machine left in
  let rn = Node.of_ptr t.machine right in
  (* Re-copy any keys that did not make it into the left node (key
     ranges are disjoint, so membership is the completion test). *)
  List.iter
    (fun (k, v) ->
      if Node.find t.lay node k < 0 then
        match Node.insert t.lay node k v with
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
  (match Art.lookup t.art (Key.to_radix anchor) with
  | Some p when Pptr.equal p right -> ignore (Art.delete t.art (Key.to_radix anchor))
  | Some _ | None -> ());
  Heap.free t.data_heap right;
  Smo_log.clear e

(* Walk the data layer, inserting every live anchor (DRAM search
   layer rebuild). *)
let rebuild_search_layer t =
  let rec go ptr =
    if not (Pptr.is_null ptr) then begin
      let node = Node.of_ptr t.machine ptr in
      if not (Node.is_deleted node) then
        ignore (Art.insert t.art (Key.to_radix (Node.anchor node)) ptr);
      go (Node.next node)
    end
  in
  go (Pobj.read_int (Pobj.make t.meta 0) off_head)

let recover t =
  Obs.Span.with_phase Obs.Span.Recovery @@ fun () ->
  (* Volatile coordination state did not survive. *)
  Queue.clear t.pending_refs;
  t.smo_hint <- false;
  t.shutdown <- false;
  t.updater_running <- false;
  Heap.recover t.data_heap;
  Heap.recover t.search_heap;
  if t.cfg.search_layer_dram then begin
    (* The whole trie was wiped with its DRAM pool. *)
    Art.reset t.art;
    ignore (Art.recover t.art);
    t.gen <- Art.generation t.art;
    rebuild_search_layer t
  end
  else begin
    ignore (Art.recover t.art);
    t.gen <- Art.generation t.art
  end;
  (* Replay outstanding SMOs in timestamp order. *)
  let entries = ref [] in
  Smo_log.iter_active t.log ~f:(fun e ->
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
  let head_ptr = Pobj.read_int (Pobj.make t.meta 0) off_head in
  let nodes = List.rev (walk head_ptr Pptr.null None []) in
  (* search layer: every mapping must point to a live data node whose
     anchor is the mapped key (after drain, it must be complete). *)
  List.iter
    (fun (anchor, ptr) ->
      if smo_backlog t = 0 then
        match Art.lookup t.art (Key.to_radix anchor) with
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
  go (Pobj.read_int (Pobj.make t.meta 0) off_head) []

let cardinal t = List.length (to_list t)
