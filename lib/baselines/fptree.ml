(* FPTree (Oukid et al., SIGMOD'16) baseline: a DRAM-NVM hybrid
   B+-tree.

   Reproduced characteristics (§2.2.1, §6.1):
   - internal nodes live in DRAM and are rebuilt on every restart
     (fast traversal, long recovery);
   - leaves live on NVM: unsorted slots with a validity bitmap and a
     one-byte fingerprint array (which PACTree borrows);
   - internal-node accesses run under HTM with a fallback lock, so
     throughput collapses with large data sets / many threads (GC3,
     Fig 6); leaves use per-leaf locks;
   - leaves are not kept sorted and FPTree has no cached permutation
     array, so every scan re-sorts each visited leaf (its Fig 13 tail
     latency on workload E);
   - splits are synchronous: the internal structure is updated while
     the leaf lock is held (SMO in the critical path, GC2).

   The DRAM internal layer is an OCaml map of separator keys to leaf
   pointers; each traversal charges DRAM latency per level, and HTM
   wraps it with a footprint that grows with the index size.  Leaf
   merging on delete is not implemented (as in the authors' binary,
   deletes just clear bitmap slots). *)

module Pool = Nvm.Pool
module Machine = Nvm.Machine
module Heap = Pmalloc.Heap
module Pptr = Pmalloc.Pptr
module Key = Pactree.Key
module Vlock = Pactree.Vlock
module Node = Pactree.Data_node

let name = "FPTree"

module Smap = Map.Make (String)

(* What a crash loses, built by [start] from the pools on every create
   and recover: a generation one past the persisted one (voiding every
   older leaf lock), the HTM, and the DRAM internal layer with its size
   estimate, from a walk of the leaf chain from [head] (null for a
   tree being formatted) — FPTree's recovery-time cost. *)
type volatile = {
  mutable internals : Pmalloc.Pptr.t Smap.t; (* DRAM: separator -> leaf *)
  htm : Htm.t;
  gen : int;
  mutable cardinal_estimate : int;
}

type t = {
  machine : Machine.t;
  heap : Heap.t; (* NVM leaves *)
  meta : Pool.t; (* 0: head leaf; 8: generation; 64: split micro-log *)
  lay : Node.layout;
  mutable v : volatile;
}

let off_head = 0

let off_gen = 8

let off_log = 64

let start machine meta ~head =
  let gen = Pool.read_int meta off_gen + 1 in
  Pool.write_int meta off_gen gen;
  Pool.persist meta off_gen 8;
  let rec walk ptr internals n =
    if Pptr.is_null ptr then (internals, n)
    else begin
      let leaf = Node.of_ptr machine ptr in
      let internals = Smap.add (Node.anchor leaf) ptr internals in
      let n = n + Node.live_count leaf in
      walk (Node.next leaf) internals n
    end
  in
  let internals, cardinal_estimate = walk head Smap.empty 0 in
  { internals; htm = Htm.create ~seed:0x5EEDL (); gen; cardinal_estimate }

let create machine ?(string_keys = false) () =
  let numa = Machine.numa_count machine in
  let heap =
    Heap.create machine ~kind:Heap.Pmdk ~name:"fptree" ~numa_pools:numa ()
  in
  let meta = Pool.create machine ~name:"fptree.meta" ~numa:0 ~capacity:256 () in
  let lay = Node.layout ~key_inline:(if string_keys then 32 else 8) () in
  let t = { machine; heap; meta; lay; v = start machine meta ~head:Pptr.null } in
  (* head leaf with sentinel separator "" *)
  let ptr =
    Heap.alloc_to heap ~numa:0 ~size:lay.Node.node_size ~dest_pool:meta ~dest_off:off_head
      ()
  in
  let head = Node.of_ptr t.machine ptr in
  Node.init lay head ~gen:t.v.gen ~anchor:"" ~next:Pptr.null ~prev:Pptr.null;
  Pool.persist head.Node.pool head.Node.off lay.Node.node_size;
  t.v.internals <- Smap.add "" ptr t.v.internals;
  t

let htm_stats t = Htm.stats t.v.htm

(* HTM read-set model: path through the DRAM internals plus cache
   pressure growing with the index size (GC3). *)
let footprint t =
  let levels = 1 + (Smap.cardinal t.v.internals |> float_of_int |> Float.log2 |> int_of_float |> max 0) in
  (8 * levels) + (t.v.cardinal_estimate / 4000)

(* Pure DRAM lookup of the leaf covering [key]. *)
let find_leaf_dram t key =
  match Smap.find_last_opt (fun sep -> String.compare sep key <= 0) t.v.internals with
  | Some (_, ptr) -> ptr
  | None -> Pool.read_int t.meta off_head

(* The DRAM traversal cost: a few cache references per level. *)
let traversal_duration t =
  let levels = 2 + (Smap.cardinal t.v.internals |> float_of_int |> Float.log2 |> int_of_float |> max 0) in
  float_of_int levels *. Nvm.Config.dram_latency /. 3.0

(* Traverse internals transactionally. *)
let to_leaf t key =
  Htm.execute t.v.htm ~footprint_lines:(footprint t) ~duration:(traversal_duration t)
    (fun () -> find_leaf_dram t key)

(* Does [leaf] still cover [key]?  A split moves the keys from the new
   leaf's anchor up to it, behind [leaf]'s next pointer. *)
let covers t leaf key =
  let nxt = Node.next leaf in
  Pptr.is_null nxt
  || Node.compare_anchor (Pptr.resolve t.machine nxt) (Pptr.off nxt) key > 0

(* A validated hit needs no range check: every live key is in exactly
   one leaf.  A miss checks, under the same version, that a split did
   not move the key on between the DRAM lookup and the leaf read, and
   traverses again if it did. *)
let lookup t key =
  let rec read leaf attempt =
    let h = Node.lock_handle leaf in
    let v = Vlock.begin_read h ~gen:t.v.gen in
    let slot = Node.find t.lay leaf key in
    let r = if slot >= 0 then Some (Node.found_value ()) else None in
    let moved = slot < 0 && not (covers t leaf key) in
    let valid = Vlock.validate h.pool h.off ~gen:t.v.gen ~version:v in
    if valid && not moved then r
    else begin
      Des.Sched.wait "fptree leaf" h.off ~attempt Des.Sched.Now;
      read (if valid then Node.of_ptr t.machine (to_leaf t key) else leaf) (attempt + 1)
    end
  in
  read (Node.of_ptr t.machine (to_leaf t key)) 0

(* Split a locked, full leaf; returns the leaf now hosting [key].  A
   split micro-log entry brackets the operation (FPTree's crash
   consistency for SMOs); the internal update happens while the leaf
   lock is held. *)
let split_leaf t leaf key =
  (* micro-log: leaf being split *)
  Pool.write_int t.meta off_log (Node.to_ptr leaf);
  Pool.persist t.meta off_log 8;
  let slots = Node.thread_slots () in
  let total = Node.sort_live t.lay leaf slots in
  let half = total / 2 and moved = total - (total / 2) in
  let median = Node.sorted_key t.lay slots.(half) in
  let ptr =
    Heap.alloc_to t.heap ~size:t.lay.Node.node_size ~dest_pool:t.meta ~dest_off:(off_log + 8) ()
  in
  let nleaf = Node.of_ptr t.machine ptr in
  Node.init t.lay nleaf ~gen:t.v.gen ~anchor:median ~next:(Node.next leaf) ~prev:Pptr.null;
  Node.copy_into t.lay ~src:leaf ~dst:nleaf slots ~pos:half ~len:moved;
  Pool.persist nleaf.Node.pool nleaf.Node.off t.lay.Node.node_size;
  Node.set_next leaf ptr;
  Pool.persist leaf.Node.pool (leaf.Node.off + Node.off_next) 8;
  Node.clear_slots leaf (Node.slot_mask slots ~pos:half ~len:moved);
  (* synchronous internal update, inside HTM, leaf lock still held *)
  Htm.execute t.v.htm ~footprint_lines:(footprint t) ~duration:(traversal_duration t)
    (fun () -> t.v.internals <- Smap.add median ptr t.v.internals);
  (* clear micro-log *)
  Pool.write_int t.meta off_log 0;
  Pool.persist t.meta off_log 8;
  if Key.compare key median < 0 then leaf else nleaf

let release t leaf wv = Vlock.release (Node.lock_handle leaf) ~gen:t.v.gen ~version:wv

let rec locked_leaf t key attempt =
  let ptr = to_leaf t key in
  let leaf = Node.of_ptr t.machine ptr in
  let wv = Vlock.acquire (Node.lock_handle leaf) ~gen:t.v.gen in
  (* the leaf may have split between traversal and lock *)
  if covers t leaf key then (leaf, wv)
  else begin
    release t leaf wv;
    Des.Sched.wait "fptree moved leaf" leaf.Node.off ~attempt Des.Sched.Now;
    locked_leaf t key (attempt + 1)
  end

(* Insert the absent [key] into the locked [leaf], which has room. *)
let place t leaf key value =
  match Node.insert t.lay leaf key value with
  | Node.Ok -> t.v.cardinal_estimate <- t.v.cardinal_estimate + 1
  | Node.Full | Node.Absent -> assert false

let insert t key value =
  let leaf, wv = locked_leaf t key 0 in
  match Node.find t.lay leaf key with
  | slot when slot >= 0 ->
      ignore (Node.update t.lay leaf key value);
      release t leaf wv
  | _ -> (
      match Node.insert t.lay leaf key value with
      | Node.Ok ->
          t.v.cardinal_estimate <- t.v.cardinal_estimate + 1;
          release t leaf wv
      | Node.Full ->
          (* the pair goes to the half that covers it; a new right half
             is locked for it *)
          let target = split_leaf t leaf key in
          if Node.equal target leaf then place t leaf key value
          else begin
            let wv2 = Vlock.acquire (Node.lock_handle target) ~gen:t.v.gen in
            place t target key value;
            release t target wv2
          end;
          release t leaf wv
      | Node.Absent -> assert false)

let update t key value =
  let leaf, wv = locked_leaf t key 0 in
  let r = Node.update t.lay leaf key value in
  release t leaf wv;
  r = Node.Ok

let delete t key =
  let leaf, wv = locked_leaf t key 0 in
  let r = Node.delete t.lay leaf key in
  if r = Node.Ok then t.v.cardinal_estimate <- t.v.cardinal_estimate - 1;
  release t leaf wv;
  r = Node.Ok

(* Scan: no cached permutation — sort every visited leaf, every time
   (FPTree's scan overhead).  Every leaf's keys are held to [>= key]:
   a leaf that split after the DRAM lookup has handed the keys from its
   new bound up to [key] to its successor.  The test reads the thread's
   sorted copy, not the leaf. *)
let scan t key n_wanted =
  let acc = ref [] and taken = ref 0 in
  let slots = Node.thread_slots () in
  let rec scan_leaf ptr attempt =
    if !taken < n_wanted && not (Pptr.is_null ptr) then begin
      let leaf = Node.of_ptr t.machine ptr in
      let h = Node.lock_handle leaf in
      let v = Vlock.begin_read h ~gen:t.v.gen in
      let live = Node.sort_live t.lay leaf slots in
      let batch = ref [] and n = ref 0 in
      for i = 0 to live - 1 do
        let slot = slots.(i) in
        if !taken + !n < n_wanted && Node.compare_sorted_key t.lay slot key >= 0 then begin
          let v = Node.value_at t.lay leaf slot in
          batch := (Node.sorted_key t.lay slot, v) :: !batch;
          incr n
        end
      done;
      let nxt = Node.next leaf in
      if Vlock.validate h.pool h.off ~gen:t.v.gen ~version:v then begin
        acc := !batch @ !acc;
        taken := !taken + !n;
        scan_leaf nxt 0
      end
      else begin
        Des.Sched.wait "fptree scan" h.off ~attempt Des.Sched.Now;
        scan_leaf ptr (attempt + 1)
      end
    end
  in
  scan_leaf (to_leaf t key) 0;
  List.rev !acc

(* Restart: leaves survive; once the split micro-log is replayed,
   [start] rebuilds everything volatile from them. *)
let recover t =
  Heap.recover t.heap;
  (* Split micro-log replay: a crash after the new leaf was linked but
     before the moved slots were cleared leaves the moved records live
     in both leaves.  Re-clear every slot of the logged leaf at or
     above its successor's anchor.  If the crash hit before the link,
     the successor (if any) is a pre-existing right sibling whose
     anchor exceeds every key in the logged leaf, so this is a no-op
     (the allocated-but-unlinked leaf leaks, which is benign). *)
  let logged = Pool.read_int t.meta off_log in
  if logged <> 0 then begin
    let old_leaf = Node.of_ptr t.machine logged in
    let nxt = Node.next old_leaf in
    if not (Pptr.is_null nxt) then begin
      let nleaf = Node.of_ptr t.machine nxt in
      let slots = Array.make Node.entries 0 in
      let stale = ref 0L in
      for i = 0 to Node.sort_live t.lay old_leaf slots - 1 do
        let slot = slots.(i) in
        if Node.compare_anchor nleaf.pool nleaf.off (Node.sorted_key t.lay slot) <= 0 then
          stale := Int64.logor !stale (Node.slot_mask slots ~pos:i ~len:1)
      done;
      if !stale <> 0L then Node.clear_slots old_leaf !stale
    end;
    Pool.write_int t.meta off_log 0;
    Pool.persist t.meta off_log 8
  end;
  t.v <- start t.machine t.meta ~head:(Pool.read_int t.meta off_head)

let check_invariants t =
  let rec walk ptr acc =
    if Pptr.is_null ptr then acc
    else begin
      let leaf = Node.of_ptr t.machine ptr in
      let slots = Array.make Node.entries 0 in
      let keys = List.init (Node.sort_live t.lay leaf slots) (fun i -> Node.sorted_key t.lay slots.(i)) in
      walk (Node.next leaf) (acc @ keys)
    end
  in
  let all = walk (Pool.read_int t.meta off_head) [] in
  if all <> List.sort Key.compare all then failwith "FPTree: chain not sorted";
  List.length all
