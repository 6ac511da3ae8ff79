(* FastFair (Hwang et al., FAST'18) baseline: a lock-based persistent
   B+-tree with logless crash consistency.

   Faithful cost characteristics (what the paper's comparison depends
   on, §2.2.1, §6.1):
   - every node (internal and leaf) lives on NVM;
   - nodes keep *sorted* records, so inserts and deletes shift records
     in place, each touched line flushed (logless, ordered 8B stores);
   - integer keys and values are embedded in the leaf; string keys are
     stored out-of-node behind a pointer, adding a dereference per
     comparison (the paper's explanation for FastFair's 3x drop on
     string keys);
   - structural modifications are synchronous and hold locks along
     the split path (SMO in the critical path, GC2);
   - scans walk the sorted leaf chain: sequential, prefetch-friendly.

   Concurrency: per-node version locks; writers use lock coupling
   (release the parent once the child cannot split), readers are
   optimistic with restart.  Deletes do not rebalance (lazy deletion),
   which is irrelevant to the paper's delete-free YCSB workloads. *)

module Pool = Nvm.Pool
module Machine = Nvm.Machine
module Heap = Pmalloc.Heap
module Pptr = Pmalloc.Pptr
module Key = Pactree.Key
module Vlock = Pactree.Vlock
module Layout = Pobj.Layout

let name = "FastFair"

(* Node layout:
   0 lock   8 leaf flag (u8)   10 count (u16)   16 sibling next
   24 leftmost child (internal only)   32 records: (krep 8, val 8) * cap *)
let cap = 27

let hdr = Layout.create "fastfair.node"

let f_lock = Layout.word ~transient:true hdr "lock"

let f_leaf = Layout.u8 ~at:8 hdr "leaf"

let f_count = Layout.u16 ~at:10 hdr "count"

let f_next = Layout.word ~at:16 hdr "next"

let f_leftmost = Layout.word ~at:24 hdr "leftmost"

let f_recs = Layout.slots ~at:32 hdr "recs" ~stride:16 ~count:cap

let node_size = Layout.seal hdr

let off_lock = Layout.off f_lock

let off_leaf = Layout.off f_leaf

let off_count = Layout.off f_count

let off_next = Layout.off f_next

let off_leftmost = Layout.off f_leftmost

let gen = 1

type t = {
  machine : Machine.t;
  heap : Heap.t;
  meta : Pool.t; (* 0: root pointer *)
  kr : Krep.t;
}

type node = Pobj.obj = { pool : Pool.t; off : int }

let node_of machine ptr = { pool = Pptr.resolve machine ptr; off = Pptr.off ptr }

let to_ptr n = Pptr.make ~pool:(Pool.id n.pool) ~off:n.off

(* The lock word is the node's first field, so a node is its own lock
   handle. *)
let () = assert (off_lock = 0)

let is_leaf n = Pobj.read_u8 n (off_leaf) = 1

let count n = Pobj.read_u16 n (off_count)

let set_count n c = Pobj.write_u16 n (off_count) c

let next n = Pobj.read_int n (off_next)

let leftmost n = Pobj.read_int n (off_leftmost)

let rec_rel i = Layout.slot f_recs i

let rec_off n i = n.off + rec_rel i

let krep_at n i = Pobj.read_i64 n (rec_rel i)

let val_at n i = Pobj.read_int n (rec_rel i + 8)

(* Index of the first slot whose key is >= probe (binary search over
   the sorted records). *)
let lower_bound t n ~probe_rep ~probe_key =
  let c = count n in
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if Krep.compare_with_key t.kr (krep_at n mid) ~probe_rep ~probe_key < 0 then
        go (mid + 1) hi
      else go lo mid
  in
  go 0 c

(* Does slot [i] (a [lower_bound]) hold the probe key? *)
let found t n i ~probe_rep ~probe_key =
  i < count n && Krep.compare_with_key t.kr (krep_at n i) ~probe_rep ~probe_key = 0

let child_for t n ~probe_rep ~probe_key =
  (* last separator <= probe; its child, or leftmost *)
  let i = lower_bound t n ~probe_rep ~probe_key in
  let i = if found t n i ~probe_rep ~probe_key then i + 1 else i in
  if i = 0 then leftmost n else val_at n (i - 1)

let alloc_node t ~leaf =
  let ptr = Heap.alloc t.heap node_size in
  let n = node_of t.machine ptr in
  Pobj.fill_zero n 0 node_size;
  Vlock.init n ~gen;
  Pobj.write_u8 n (off_leaf) (Bool.to_int leaf);
  (n, ptr)

let create machine ?(string_keys = false) () =
  let numa = Machine.numa_count machine in
  let heap =
    Heap.create machine ~kind:Heap.Pmdk ~name:"fastfair" ~numa_pools:numa ()
  in
  let meta = Pool.create machine ~name:"fastfair.meta" ~numa:0 ~capacity:256 () in
  let t = { machine; heap; meta; kr = Krep.create ~heap ~string_keys } in
  let root, rptr = alloc_node t ~leaf:true in
  Pobj.persist root 0 node_size;
  let mo = Pobj.make meta 0 in
  Pobj.write_int mo 0 rptr;
  Pobj.persist mo 0 8;
  t

let root t = node_of t.machine (Pobj.read_int (Pobj.make t.meta 0) 0)

(* ---------- reads ---------- *)

let check n v = if not (Vlock.validate n.pool n.off ~gen ~version:v) then raise Vlock.Restart

(* The root pointer is read without a lock; after pinning the root
   node (optimistically or exclusively) we must confirm it is still
   the root, else a concurrent root split could hide keys. *)
let confirm_root t n = Pobj.read_int (Pobj.make t.meta 0) 0 = to_ptr n

(* The optimistic descent of lookups and scans: each node is read
   under its version and validated once its child pointer is read.
   Returns the leaf with its version, not yet validated. *)
let rec read_leaf t ~probe_rep ~probe_key ~at_root n =
  let v = Vlock.begin_read n ~gen in
  if at_root && not (confirm_root t n) then raise Vlock.Restart;
  if is_leaf n then (n, v)
  else begin
    let child = child_for t n ~probe_rep ~probe_key in
    check n v;
    read_leaf t ~probe_rep ~probe_key ~at_root:false (node_of t.machine child)
  end

let lookup t key =
  let probe_rep = Krep.probe_rep t.kr key in
  Vlock.retry @@ fun () ->
  let n, v = read_leaf t ~probe_rep ~probe_key:key ~at_root:true (root t) in
  let i = lower_bound t n ~probe_rep ~probe_key:key in
  let r = if found t n i ~probe_rep ~probe_key:key then Some (val_at n i) else None in
  check n v;
  r

(* ---------- writes ---------- *)

(* A record is written as a single 16-byte store: nodes are 64-byte
   aligned and records 16-byte aligned, so a record never straddles a
   cache line and the pair travels torn-free (both words in one
   line-granularity event — the 8-byte-ordered-store discipline of the
   real system collapsed to one store in the line-level crash model). *)
let record_bytes krep v =
  let b = Bytes.create 16 in
  Bytes.set_int64_le b 0 krep;
  Bytes.set_int64_le b 8 (Int64.of_int v);
  Bytes.unsafe_to_string b

let set_record n i krep v = Pobj.write_string n (rec_rel i) (record_bytes krep v)

let copy_record n ~src ~dst =
  Pobj.write_string n (rec_rel dst) (Pobj.read_string n (rec_rel src) 16)

let line_of n i = rec_off n i / 64

(* FastFair's failure-atomic shift (FAST, paper §2.2.1): grow the
   array by duplicating the last record (fence), publish the grown
   count (fence), then shift right-to-left one cache line at a time
   with a fence at each line boundary, and finally install the new
   record (fence).  Every crash cut leaves the old sorted records with
   at most one adjacent duplicate window — no key is ever lost and no
   garbage slot is ever visible; {!recover} drops the duplicates.
   Concurrent readers never see the intermediate states (the node is
   locked; optimistic readers re-validate and restart). *)
let insert_at n i krep v =
  let c = count n in
  if i < c then begin
    copy_record n ~src:(c - 1) ~dst:c;
    Pobj.persist n (rec_rel c) 16;
    set_count n (c + 1);
    Pobj.persist n (off_count) 2;
    for j = c - 1 downto i + 1 do
      copy_record n ~src:(j - 1) ~dst:j;
      if line_of n (j - 1) <> line_of n j then begin
        Pobj.clwb n (rec_rel j);
        Pobj.fence n
      end
    done;
    set_record n i krep v;
    Pobj.clwb n (rec_rel i);
    Pobj.fence n
  end
  else begin
    (* append: record durable before the count makes it visible *)
    set_record n i krep v;
    Pobj.persist n (rec_rel i) 16;
    set_count n (c + 1);
    Pobj.persist n (off_count) 2
  end

(* Mirror image of [insert_at]: shift left-to-right with per-line
   fences (transient adjacent duplicate, never a lost or garbage
   record), then shrink the count. *)
let remove_at n i =
  let c = count n in
  for j = i to c - 2 do
    copy_record n ~src:(j + 1) ~dst:j;
    if line_of n (j + 1) <> line_of n j then begin
      Pobj.clwb n (rec_rel j);
      Pobj.fence n
    end
  done;
  if c - 1 > i then begin
    Pobj.clwb n (rec_rel (c - 2));
    Pobj.fence n
  end;
  set_count n (c - 1);
  Pobj.persist n (off_count) 2

(* Split a locked, full node; returns (separator krep, new right node
   pointer).  The new node is persisted before being linked (logless
   ordering). *)
let split_node t n =
  let c = count n in
  let mid = c / 2 in
  let right, rptr = alloc_node t ~leaf:(is_leaf n) in
  let move_from = if is_leaf n then mid else mid + 1 in
  let sep = krep_at n mid in
  let moved = c - move_from in
  for j = 0 to moved - 1 do
    Pobj.write_i64 right (rec_rel j) (krep_at n (move_from + j));
    Pobj.write_int right (rec_rel j + 8) (val_at n (move_from + j))
  done;
  set_count right moved;
  if not (is_leaf n) then
    Pobj.write_int right (off_leftmost) (val_at n mid);
  Pobj.write_int right (off_next) (next n);
  Pobj.persist right 0 node_size;
  Pobj.write_int n (off_next) rptr;
  Pobj.persist n (off_next) 8;
  set_count n mid;
  Pobj.persist n (off_count) 2;
  (sep, rptr)

(* Split the locked, full node [n] (held at version [wv]) and place the
   pending record [krep] -> [v], which compares as the probe, in the
   half that covers it: keys >= the separator go to the new right node,
   locked for the store.  Then pass the separator up, by the contract of
   [insert]'s descent below. *)
let split_and_place t n wv ~at_root ~release ~anc ~probe_rep ~probe_key krep v =
  let sep, rptr = split_node t n in
  let target =
    if Krep.compare_with_key t.kr sep ~probe_rep ~probe_key <= 0 then node_of t.machine rptr
    else n
  in
  let same = target.off = n.off && target.pool == n.pool in
  let twv = if same then wv else Vlock.acquire target ~gen in
  let i = lower_bound t target ~probe_rep ~probe_key in
  insert_at target i (Lazy.force krep) v;
  if not same then Vlock.release target ~gen ~version:twv;
  if at_root then Some (sep, rptr, release)
  else begin
    release ();
    Some (sep, rptr, anc)
  end

(* Write descent with lock coupling (as in the real FastFair): each
   node is locked on entry; once a node is "safe" (not full, so no
   split can propagate above it) the whole ancestor chain is released,
   keeping writers to disjoint subtrees parallel.  Splits happen with
   the affected ancestors still locked — the synchronous SMO in the
   critical path that the paper measures (GC2).

   [descend] owns [ancestors_release]; contract on return:
   - [None]: the node's lock and all ancestors' locks are released.
   - [Some (sep, right)]: the node split; its own lock is released but
     the (full) parent chain is still locked so the caller can absorb
     the separator.  For the root, the root's lock is retained and
     returned so the caller can install a new root. *)
let insert t key value =
  let probe_key = key in
  let krep = lazy (Krep.of_key t.kr key) in
  let probe_rep = Krep.probe_rep t.kr key in
  Vlock.retry @@ fun () ->
  let rec descend ~at_root ~ancestors_release n =
    let wv = Vlock.acquire n ~gen in
    let release () = Vlock.release n ~gen ~version:wv in
    if at_root && not (confirm_root t n) then begin
      release ();
      ancestors_release ();
      raise Vlock.Restart
    end;
    let safe = count n < cap in
    let anc =
      if safe then begin
        ancestors_release ();
        fun () -> ()
      end
      else ancestors_release
    in
    if is_leaf n then begin
      let i = lower_bound t n ~probe_rep ~probe_key in
      if found t n i ~probe_rep ~probe_key then begin
        (* upsert: 8B atomic value store *)
        Pobj.write_int n (rec_rel i + 8) value;
        Pobj.persist n (rec_rel i + 8) 8;
        release ();
        anc ();
        None
      end
      else if safe then begin
        insert_at n i (Lazy.force krep) value;
        release ();
        None
      end
      else split_and_place t n wv ~at_root ~release ~anc ~probe_rep ~probe_key krep value
    end
    else begin
      let child = child_for t n ~probe_rep ~probe_key in
      let anc_for_child () =
        release ();
        anc ()
      in
      match descend ~at_root:false ~ancestors_release:anc_for_child (node_of t.machine child) with
      | None -> None (* self + ancestors released by the child *)
      | Some (sep, rptr, _child_anc) ->
          (* we are still locked (the child was full, so we were kept);
             the separator is placed as a probe *)
          let sep_key = Krep.to_key t.kr sep in
          if count n < cap then begin
            insert_at n (lower_bound t n ~probe_rep:sep ~probe_key:sep_key) sep rptr;
            release ();
            anc ();
            None
          end
          else
            split_and_place t n wv ~at_root ~release ~anc ~probe_rep:sep ~probe_key:sep_key
              (Lazy.from_val sep) rptr
    end
  in
  let r = root t in
  match descend ~at_root:true ~ancestors_release:(fun () -> ()) r with
  | None -> ()
  | Some (sep, rptr, release_root) ->
      (* root split: build a new root.  The old root's lock is still
         held, so nobody else can replace it concurrently. *)
      let nr, nrptr = alloc_node t ~leaf:false in
      Pobj.write_int nr (off_leftmost) (to_ptr r);
      Pobj.write_i64 nr (rec_rel 0) sep;
      Pobj.write_int nr (rec_rel 0 + 8) rptr;
      set_count nr 1;
      Pobj.persist nr 0 node_size;
      let mo = Pobj.make t.meta 0 in
      Pobj.write_int mo 0 nrptr;
      Pobj.persist mo 0 8;
      release_root ()

(* The descent of updates and deletes: optimistic through the internal
   nodes, then the leaf is locked.  Returns the locked leaf and its
   lock version. *)
let rec lock_leaf t ~probe_rep ~probe_key ~at_root n =
  if is_leaf n then begin
    let wv = Vlock.acquire n ~gen in
    if at_root && not (confirm_root t n) then begin
      Vlock.release n ~gen ~version:wv;
      raise Vlock.Restart
    end;
    (n, wv)
  end
  else begin
    let v = Vlock.begin_read n ~gen in
    if at_root && not (confirm_root t n) then raise Vlock.Restart;
    let child = child_for t n ~probe_rep ~probe_key in
    check n v;
    lock_leaf t ~probe_rep ~probe_key ~at_root:false (node_of t.machine child)
  end

(* [f n i] on the slot [i] of [key] in its locked leaf [n]; [false]
   when the key is absent. *)
let with_key_locked t key f =
  let probe_rep = Krep.probe_rep t.kr key in
  Vlock.retry @@ fun () ->
  let n, wv = lock_leaf t ~probe_rep ~probe_key:key ~at_root:true (root t) in
  let i = lower_bound t n ~probe_rep ~probe_key:key in
  let found = found t n i ~probe_rep ~probe_key:key in
  if found then f n i;
  Vlock.release n ~gen ~version:wv;
  found

let update t key value =
  with_key_locked t key (fun n i ->
      Pobj.write_int n (rec_rel i + 8) value;
      Pobj.persist n (rec_rel i + 8) 8)

let delete t key = with_key_locked t key (fun n i -> remove_at n i)

(* Scan: locate the first leaf, then follow the sorted leaf chain —
   FastFair's strength (sequential NVM reads, GA5).  Every leaf's keys
   are held to [>= key], host-side on the key already read: a leaf that
   split after the descent has handed keys below [key] to its
   successor. *)
let scan t key n_wanted =
  let probe_rep = Krep.probe_rep t.kr key in
  Vlock.retry @@ fun () ->
  let acc = ref [] and taken = ref 0 in
  let rec walk n v ~first =
    let c = count n in
    let start =
      if first then lower_bound t n ~probe_rep ~probe_key:key else 0
    in
    let batch = ref [] and b = ref 0 in
    let i = ref start in
    while !i < c && !taken + !b < n_wanted do
      let k = Krep.to_key t.kr (krep_at n !i) in
      if Key.compare k key >= 0 then begin
        batch := (k, val_at n !i) :: !batch;
        incr b
      end;
      incr i
    done;
    let nxt = next n in
    check n v;
    (* [batch] is newest-first; keep [acc] globally newest-first *)
    acc := !batch @ !acc;
    taken := !taken + !b;
    if !taken < n_wanted && not (Pptr.is_null nxt) then begin
      let n' = node_of t.machine nxt in
      walk n' (Vlock.begin_read n' ~gen) ~first:false
    end
  in
  let leaf, v = read_leaf t ~probe_rep ~probe_key:key ~at_root:true (root t) in
  walk leaf v ~first:true;
  List.rev !acc

(* ---------- recovery ---------- *)

(* Post-crash recovery, logless as in the paper: replay the allocator
   log, then repair the leaf chain in one pass — re-initialise every
   leaf lock (a crash image can capture a held lock word), drop the
   duplicate records an interrupted FAST shift leaves behind and the
   cross-node duplicate window of a split caught between sibling-link
   and count-truncate (all duplicates are exact copies of a record
   that is kept, so nothing acknowledged is lost) — and finally
   rebuild the internal layer from the repaired leaf chain, installing
   a fresh root.  Old internal nodes are abandoned; an interrupted SMO
   that had not yet inserted its parent separator is thereby completed
   rather than unwound. *)
let rec leftmost_leaf t n = if is_leaf n then n else leftmost_leaf t (node_of t.machine (leftmost n))

let recover t =
  Heap.recover t.heap;
  let first = leftmost_leaf t (root t) in
  (* Pass 1: leaf repair.  Keep records in strictly increasing global
     key order; rewrite nodes that shrank. *)
  let leaves = ref [] in
  let last = ref None in
  let rec walk n =
    Vlock.init n ~gen;
    let c = count n in
    let keep = ref [] and kept = ref 0 in
    for i = 0 to c - 1 do
      let kr = krep_at n i in
      let ok = match !last with None -> true | Some l -> Krep.compare t.kr kr l > 0 in
      if ok then begin
        keep := (kr, val_at n i) :: !keep;
        incr kept;
        last := Some kr
      end
    done;
    if !kept <> c then begin
      List.iteri (fun i (kr, v) -> set_record n i kr v) (List.rev !keep);
      set_count n !kept;
      Pobj.persist n 0 node_size
    end;
    (match List.rev !keep with
    | (kr0, _) :: _ -> leaves := (kr0, to_ptr n) :: !leaves
    | [] -> ());
    let nxt = next n in
    if not (Pptr.is_null nxt) then walk (node_of t.machine nxt)
  in
  walk first;
  (* Pass 2: rebuild the internal layer bottom-up over the non-empty
     leaves; the separator for a child is its subtree's smallest key. *)
  let chunk l =
    let rec go acc cur cnt = function
      | [] -> List.rev (List.rev cur :: acc)
      | x :: tl ->
          if cnt = cap then go (List.rev cur :: acc) [ x ] 1 tl
          else go acc (x :: cur) (cnt + 1) tl
    in
    go [] [] 0 l
  in
  let build_internal group =
    let n, ptr = alloc_node t ~leaf:false in
    (match group with
    | (kr0, p0) :: rest ->
        Pobj.write_int n (off_leftmost) p0;
        List.iteri (fun i (kr, p) -> set_record n i kr p) rest;
        set_count n (List.length rest);
        Pobj.persist n 0 node_size;
        (kr0, ptr)
    | [] -> assert false)
  in
  let rec build level =
    match level with
    | [ (_, ptr) ] -> ptr
    | _ -> build (List.map build_internal (chunk level))
  in
  let new_root =
    match List.rev !leaves with [] -> to_ptr first | level -> build level
  in
  let mo = Pobj.make t.meta 0 in
  Pobj.write_int mo 0 new_root;
  Pobj.persist mo 0 8

(* ---------- invariant check (tests) ---------- *)

let check_invariants t =
  let rec walk n acc =
    let c = count n in
    let keys = List.init c (fun i -> Krep.to_key t.kr (krep_at n i)) in
    let sorted = List.sort Key.compare keys in
    if keys <> sorted then failwith "FastFair: leaf not sorted";
    let acc = acc @ keys in
    let nxt = next n in
    if Pptr.is_null nxt then acc else walk (node_of t.machine nxt) acc
  in
  let all = walk (leftmost_leaf t (root t)) [] in
  let sorted = List.sort Key.compare all in
  if all <> sorted then failwith "FastFair: leaf chain not globally sorted";
  List.length all
