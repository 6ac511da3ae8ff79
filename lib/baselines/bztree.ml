(* BzTree (Arulraj et al., VLDB'18) baseline: a latch-free persistent
   B+-tree built on PMwCAS.

   Cost characteristics reproduced (§2.2.1, §6.1):
   - every record operation runs one or more PMwCAS executions, each
     charging descriptor + per-word persistence (~15 flushes per
     insert in total);
   - leaves are unsorted append-only slot arrays: lookups scan
     linearly (more NVM reads), scans must snapshot + sort;
   - internal nodes are immutable: splits copy-on-write the parent
     (heavy allocation — the paper measures ~40% of BzTree's time in
     the allocator), while existing child pointers are updated in
     place;
   - a full leaf is frozen, consolidated (or split) into freshly
     allocated nodes, and forwarded via a replacement pointer.

   Retired nodes are forwarded, not freed (the real system reclaims
   them with epochs; reclamation does not affect the measured
   behaviours, and the allocation cost — the relevant factor — is
   charged on every CoW). *)

module Pool = Nvm.Pool
module Machine = Nvm.Machine
module Heap = Pmalloc.Heap
module Pptr = Pmalloc.Pptr
module Key = Pactree.Key
module Vlock = Pactree.Vlock

let name = "BzTree"

let cap = 20

let off_status = 0 (* count bits 0-15, frozen bit 16, leaf bit 17 *)

let off_replacement = 8

let off_next = 16

let off_leftmost = 24

let off_recs = 32

let rec_size = 24

let node_size = off_recs + (cap * rec_size)

let frozen_bit = 1 lsl 16

let leaf_bit = 1 lsl 17

let count_of s = s land 0xFFFF

let is_frozen s = s land frozen_bit <> 0

let is_leaf s = s land leaf_bit <> 0

type t = {
  machine : Machine.t;
  heap : Heap.t;
  meta : Pool.t; (* 0: root pointer; 64..: PMwCAS descriptor area *)
  kr : Krep.t;
  mutable consolidations : int;
  mutable v : volatile;
}

(* What a crash loses, built anew by [start] on every create and
   recover.  [smo_mutex] serialises structural modifications
   (freeze/consolidate/split and the parent CoW chain); record-level
   operations stay concurrent.  The real BzTree interleaves SMOs
   through PMwCAS helping; the serialisation does not change the costs
   the paper measures (allocation volume, flush counts, indirection). *)
and volatile = { smo_mutex : Des.Sync.Mutex.t; pmwcas : Pmwcas.t }

type node = { pool : Pool.t; off : int }

let node_of machine ptr = { pool = Pptr.resolve machine ptr; off = Pptr.off ptr }

let status n = Pool.read_int n.pool (n.off + off_status)

let replacement n = Pool.read_int n.pool (n.off + off_replacement)

let next n = Pool.read_int n.pool (n.off + off_next)

let leftmost n = Pool.read_int n.pool (n.off + off_leftmost)

let rec_off n i = n.off + off_recs + (i * rec_size)

let meta_at n i = Pool.read_int n.pool (rec_off n i)

let krep_at n i = Pool.read_int64 n.pool (rec_off n i + 8)

let val_at n i = Pool.read_int n.pool (rec_off n i + 16)

let to_ptr n = Pptr.make ~pool:(Pool.id n.pool) ~off:n.off

let mw t targets = Pmwcas.execute t.v.pmwcas targets

let word pool off expected desired = { Pmwcas.pool; off; expected; desired }

(* The status word of [n] as a PMwCAS target that must still read [s]:
   a record operation guarded by it never lands in a frozen node. *)
let guard n s = word n.pool (n.off + off_status) s s

let start meta =
  { smo_mutex = Des.Sync.Mutex.create (); pmwcas = Pmwcas.create ~desc_pool:meta ~desc_base:64 }

let create machine ?(string_keys = false) () =
  let numa = Machine.numa_count machine in
  let heap =
    Heap.create machine ~kind:Heap.Pmdk ~name:"bztree" ~numa_pools:numa ()
  in
  let meta =
    Pool.create machine ~name:"bztree.meta" ~numa:0 ~capacity:(64 + Pmwcas.region_size) ()
  in
  let t =
    {
      machine;
      heap;
      meta;
      kr = Krep.create ~heap ~string_keys;
      consolidations = 0;
      v = start meta;
    }
  in
  let ptr = Heap.alloc heap node_size in
  let root = node_of t.machine ptr in
  Pool.fill_zero root.pool root.off node_size;
  Pool.write_int root.pool (root.off + off_status) leaf_bit;
  Pool.persist root.pool root.off node_size;
  Pool.write_int meta 0 ptr;
  Pool.persist meta 0 8;
  t

let root t = node_of t.machine (Pool.read_int t.meta 0)

(* Follow consolidation forwarding. *)
let rec resolve n =
  let s = status n in
  if is_frozen s then begin
    let r = replacement n in
    if Pptr.is_null r then (n, s) (* freeze in progress *)
    else resolve (node_of (Pool.machine n.pool) r)
  end
  else (n, s)

(* Internal nodes: sorted separators; child for probe = child of last
   separator <= probe, else leftmost. *)
let child_for t n s ~probe_rep ~probe_key =
  let c = count_of s in
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if Krep.compare_with_key t.kr (krep_at n mid) ~probe_rep ~probe_key < 0 then
        go (mid + 1) hi
      else go lo mid
  in
  let i = go 0 c in
  let i =
    if i < c && Krep.compare_with_key t.kr (krep_at n i) ~probe_rep ~probe_key = 0 then
      i + 1
    else i
  in
  if i = 0 then leftmost n else val_at n (i - 1)

(* Descend to the leaf covering the probe; returns the leaf and the
   path of internal nodes (nearest parent first). *)
let rec descend t n path ~probe_rep ~probe_key =
  let n, s = resolve n in
  if is_leaf s then (n, s, path)
  else
    let child = child_for t n s ~probe_rep ~probe_key in
    descend t (node_of t.machine child) (n :: path) ~probe_rep ~probe_key

(* Linear scan of an unsorted leaf: the visible slot of the key, or
   [-1]. *)
let find_visible t leaf s ~probe_rep ~probe_key =
  let c = count_of s in
  let rec go i =
    if i >= c then -1
    else if
      meta_at leaf i = 1 && Krep.compare_with_key t.kr (krep_at leaf i) ~probe_rep ~probe_key = 0
    then i
    else go (i + 1)
  in
  go 0

(* The step every operation starts with: resolve to the leaf covering
   [key] and find the key's visible slot there ([-1] if none).  A writer
   restarts on a leaf whose freeze is still in progress. *)
let locate t key ~write =
  let probe_rep = Krep.probe_rep t.kr key in
  let leaf, s, path = descend t (root t) [] ~probe_rep ~probe_key:key in
  if write && is_frozen s then raise Vlock.Restart;
  (leaf, s, path, find_visible t leaf s ~probe_rep ~probe_key:key)

let lookup t key =
  Vlock.retry @@ fun () ->
  let leaf, _, _, i = locate t key ~write:false in
  if i < 0 then None else Some (val_at leaf i)

(* ---------- consolidation and splits ---------- *)

let live_sorted t leaf s =
  let c = count_of s in
  let rec collect acc i =
    if i < 0 then acc
    else
      collect (if meta_at leaf i = 1 then (krep_at leaf i, val_at leaf i) :: acc else acc)
        (i - 1)
  in
  List.sort (fun (a, _) (b, _) -> Krep.compare t.kr a b) (collect [] (c - 1))

(* A fresh node holding [entries] (key, value or child) in slots 0..,
   with [link] as its next leaf (a leaf) or leftmost child (an
   internal node). *)
let build t ~leaf ~link entries =
  assert (List.length entries <= cap);
  let ptr = Heap.alloc t.heap node_size in
  let n = node_of t.machine ptr in
  Pool.fill_zero n.pool n.off node_size;
  List.iteri
    (fun i (krep, v) ->
      Pool.write_int n.pool (rec_off n i) 1;
      Pool.write_int64 n.pool (rec_off n i + 8) krep;
      Pool.write_int n.pool (rec_off n i + 16) v)
    entries;
  Pool.write_int n.pool (n.off + off_status)
    ((if leaf then leaf_bit else 0) lor List.length entries);
  Pool.write_int n.pool (n.off + if leaf then off_next else off_leftmost) link;
  Pool.persist n.pool n.off node_size;
  ptr

let internal_entries n s =
  List.init (count_of s) (fun i -> (krep_at n i, val_at n i))

(* A forwarding target for a node that split in two: a 2-child
   internal node covering the old node's whole range, so in-flight
   descents and chain walkers that land on the frozen node are routed
   correctly on both sides of the separator. *)
let bridge t ~left ~sep ~right = build t ~leaf:false ~link:left [ (sep, right) ]

(* Freeze [n], still at status [s]: from now on no guarded record
   operation and no child swap lands in it. *)
let freeze t n s =
  if not (mw t [ word n.pool (n.off + off_status) s (s lor frozen_bit) ]) then raise Vlock.Restart

(* Point the frozen [n] at its replacement, durably. *)
let forward n ptr =
  Pool.write_int n.pool (n.off + off_replacement) ptr;
  Pool.persist n.pool (n.off + off_replacement) 8

(* Swap [old_ptr -> new_ptr] in the child slot of [parent] that holds
   it (in-place pointer update, the one mutation internal nodes
   allow). *)
let swap_child t parent old_ptr new_ptr =
  let s = status parent in
  if is_frozen s then raise Vlock.Restart;
  let slot =
    if leftmost parent = old_ptr then parent.off + off_leftmost
    else begin
      let c = count_of s in
      let rec find i =
        if i >= c then raise Vlock.Restart
        else if val_at parent i = old_ptr then rec_off parent i + 16
        else find (i + 1)
      in
      find 0
    end
  in
  if not (mw t [ word parent.pool slot old_ptr new_ptr ]) then raise Vlock.Restart

let swap_root t old_ptr new_ptr =
  if not (mw t [ word t.meta 0 old_ptr new_ptr ]) then raise Vlock.Restart

(* Replace [old_ptr] by [new_ptr] where [path] (nearest parent first)
   points to it: in the parent, or as the root. *)
let swap_above t path old_ptr new_ptr =
  match path with
  | [] -> swap_root t old_ptr new_ptr
  | parent :: _ -> swap_child t parent old_ptr new_ptr

(* Insert separator [sep]->[right] next to child [old]->[left] in the
   (immutable) parent: CoW the parent and swap it in above. *)
let rec add_separator t path old_ptr left_ptr sep right_ptr =
  match path with
  | [] ->
      (* old was the root: new root with two children *)
      swap_root t old_ptr (build t ~leaf:false ~link:left_ptr [ (sep, right_ptr) ])
  | parent :: rest ->
      let s = status parent in
      if is_frozen s then raise Vlock.Restart;
      let entries = internal_entries parent s in
      let lm = leftmost parent in
      let subst p = if p = old_ptr then left_ptr else p in
      let lm = subst lm in
      let entries = List.map (fun (k, c) -> (k, subst c)) entries in
      (* splice (sep, right) in sorted position *)
      let rec splice acc = function
        | [] -> List.rev ((sep, right_ptr) :: acc)
        | (k, c) :: tl when Krep.compare t.kr k sep < 0 -> splice ((k, c) :: acc) tl
        | tl -> List.rev_append acc ((sep, right_ptr) :: tl)
      in
      let entries' = splice [] entries in
      let pold = to_ptr parent in
      if List.length entries' <= cap then begin
        (* freeze the old parent, forward it, then swap above *)
        let p' = build t ~leaf:false ~link:lm entries' in
        freeze t parent s;
        forward parent p';
        swap_above t rest pold p'
      end
      else begin
        (* parent overflow: split the CoW result in two *)
        let mid = List.length entries' / 2 in
        let lefts = List.filteri (fun i _ -> i < mid) entries' in
        let rights = List.filteri (fun i _ -> i > mid) entries' in
        let psep, pmid_child = List.nth entries' mid in
        let pl = build t ~leaf:false ~link:lm lefts in
        let pr = build t ~leaf:false ~link:pmid_child rights in
        freeze t parent s;
        (* the forwarding target must cover the whole old range *)
        forward parent (bridge t ~left:pl ~sep:psep ~right:pr);
        add_separator t rest pold pl psep pr
      end

(* Freeze + consolidate (and possibly split) a full leaf. *)
let consolidate t leaf s path =
  Des.Sync.Mutex.with_lock t.v.smo_mutex @@ fun () ->
  (* someone may have consolidated while we waited for the lock *)
  if status leaf <> s then raise Vlock.Restart;
  t.consolidations <- t.consolidations + 1;
  freeze t leaf s;
  let live = live_sorted t leaf s in
  let old_ptr = to_ptr leaf in
  if List.length live <= cap * 7 / 10 then begin
    let nl = build t ~leaf:true ~link:(next leaf) live in
    forward leaf nl;
    swap_above t path old_ptr nl
  end
  else begin
    let mid = List.length live / 2 in
    let lefts = List.filteri (fun i _ -> i < mid) live in
    let rights = List.filteri (fun i _ -> i >= mid) live in
    let sep = fst (List.hd rights) in
    let nr = build t ~leaf:true ~link:(next leaf) rights in
    let nl = build t ~leaf:true ~link:nr lefts in
    (* the forwarding target must cover the whole old range *)
    forward leaf (bridge t ~left:nl ~sep ~right:nr);
    add_separator t path old_ptr nl sep nr
  end

(* ---------- write operations ---------- *)

(* Store [value] in slot [i] of [leaf] by a PMwCAS guarded by the
   status word, so it can never land in a frozen node.  Contention on
   the same (hot) leaf retries in place; only a freeze forces a
   re-descent. *)
let rec cas_value t leaf i value =
  let s = status leaf in
  if is_frozen s then raise Vlock.Restart;
  let old = val_at leaf i in
  if not (mw t [ guard leaf s; word leaf.pool (rec_off leaf i + 16) old value ]) then
    cas_value t leaf i value

let insert t key value =
  Vlock.retry @@ fun () ->
  let leaf, s, path, i = locate t key ~write:true in
  if i >= 0 then cas_value t leaf i value (* upsert *)
  else if count_of s >= cap then begin
    consolidate t leaf s path;
    raise Vlock.Restart (* retraverse into the replacement *)
  end
  else begin
    let slot = count_of s in
    (* 1. reserve the slot *)
    if not (mw t [ word leaf.pool (leaf.off + off_status) s (s + 1) ]) then raise Vlock.Restart;
    (* 2. write the record payload and persist it *)
    let krep = Krep.of_key t.kr key in
    Pool.write_int64 leaf.pool (rec_off leaf slot + 8) krep;
    Pool.write_int leaf.pool (rec_off leaf slot + 16) value;
    Pool.persist leaf.pool (rec_off leaf slot + 8) 16;
    (* 3. make it visible — guarded by the status word so a record can
       never become visible in a frozen node (it would be lost by the
       concurrent consolidation) *)
    let rec publish () =
      let s2 = status leaf in
      if is_frozen s2 then raise Vlock.Restart
      else if not (mw t [ guard leaf s2; word leaf.pool (rec_off leaf slot) 0 1 ]) then publish ()
    in
    publish ()
  end

let update t key value =
  Vlock.retry @@ fun () ->
  let leaf, _, _, i = locate t key ~write:true in
  i >= 0
  && begin
       cas_value t leaf i value;
       true
     end

let delete t key =
  Vlock.retry @@ fun () ->
  let leaf, s, _, i = locate t key ~write:true in
  i >= 0 && (mw t [ guard leaf s; word leaf.pool (rec_off leaf i) 1 0 ] || raise Vlock.Restart)

(* Resolve forwarding, then descend a bridge's leftmost spine down to
   a leaf. *)
let rec leftmost_leaf t n =
  let n, s = resolve n in
  if is_leaf s then (n, s) else leftmost_leaf t (node_of t.machine (leftmost n))

(* Scan: snapshot each unsorted leaf, sort it (the per-node overhead
   the paper attributes to BzTree scans), follow the sibling chain
   through replacement forwards.  Every leaf's keys are held to
   [>= key], host-side on the key already read: a leaf consolidated
   into a split after the descent forwards the scan to the left half
   first. *)
let scan t key n_wanted =
  Vlock.retry @@ fun () ->
  let probe_rep = Krep.probe_rep t.kr key in
  let acc = ref [] and taken = ref 0 in
  let rec walk node ~first =
    let node, s = leftmost_leaf t node in
    let pairs = live_sorted t node s in
    let pairs =
      if first then
        List.filter
          (fun (kr, _) ->
            Krep.compare_with_key t.kr kr ~probe_rep ~probe_key:key >= 0)
          pairs
      else pairs
    in
    List.iter
      (fun (kr, v) ->
        if !taken < n_wanted then begin
          let k = Krep.to_key t.kr kr in
          if Key.compare k key >= 0 then begin
            acc := (k, v) :: !acc;
            incr taken
          end
        end)
      pairs;
    let nxt = next node in
    if !taken < n_wanted && not (Pptr.is_null nxt) then walk (node_of t.machine nxt) ~first:false
  in
  let leaf, _, _ = descend t (root t) [] ~probe_rep ~probe_key:key in
  walk leaf ~first:true;
  List.rev !acc

let consolidations t = t.consolidations

(* Post-crash recovery: replay the allocator log, build the volatile
   state anew, roll interrupted PMwCAS descriptors forward/back, then
   walk the reachable tree and unfreeze any node whose freeze never
   published a replacement — the crash interrupted the SMO before the
   CoW result was durable, so the freeze is rolled back (writers would
   otherwise spin forever on a forward that will never come).  Frozen
   nodes *with* a replacement keep forwarding, exactly as live readers
   expect. *)
let recover t =
  Heap.recover t.heap;
  t.v <- start t.meta;
  ignore (Pmwcas.recover t.v.pmwcas : int);
  let rec walk ptr =
    let n = node_of t.machine ptr in
    let s = status n in
    if is_frozen s && Pptr.is_null (replacement n) then begin
      Pool.write_int n.pool (n.off + off_status) (s land lnot frozen_bit);
      Pool.persist n.pool (n.off + off_status) 8
    end;
    let n, s = resolve n in
    if not (is_leaf s) then begin
      walk (leftmost n);
      for i = 0 to count_of s - 1 do
        walk (val_at n i)
      done
    end
  in
  walk (Pool.read_int t.meta 0)

let check_invariants t =
  (* walk the leaf chain from the leftmost leaf; the concatenation of
     per-leaf sorted live keys must be globally sorted *)
  let rec walk n acc =
    let n, s = leftmost_leaf t n in
    let keys = List.map (fun (kr, _) -> Krep.to_key t.kr kr) (live_sorted t n s) in
    let acc = acc @ keys in
    let nxt = next n in
    if Pptr.is_null nxt then acc else walk (node_of t.machine nxt) acc
  in
  let all = walk (fst (leftmost_leaf t (root t))) [] in
  if all <> List.sort Key.compare all then failwith "BzTree: chain not sorted";
  List.length all
