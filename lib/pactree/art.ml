(* PDL-ART: Persistent Durable-Linearizable Adaptive Radix Tree
   (paper §5.1).

   The trie maps keys ({!Key.t}) to persistent payload pointers.  It
   reads each key followed by a 0 terminator that it supplies itself
   ([key_len], [key_byte]), which makes the key set prefix-free; no
   caller builds a terminated copy.  Leaves are tagged pointers stored
   directly in child slots: bit 0 set means "payload", clear means
   "inner node"; payload keys are recovered through [key_of_leaf].

   Concurrency is optimistic lock coupling over the paper's optimistic
   persistent version locks: readers validate node versions and
   restart on interference; writers lock the node (and its parent for
   structural changes).

   Crash consistency is log-free (§5.1(2)): new nodes are fully
   persisted before the single 8-byte pointer store that publishes
   them, and in-node child insertion persists the entry before the
   count/index store that makes it visible.  Structural replacements
   (grow/shrink/prefix splits) are copy-on-write committed by one
   atomic pointer swap.  A per-thread pending log (§5.1(3)) records
   allocations and retirements so recovery can free unreachable
   nodes. *)

module Pool = Nvm.Pool
module Pptr = Pmalloc.Pptr
module Heap = Pmalloc.Heap
module Layout = Pobj.Layout

type node = Pobj.obj = { pool : Pool.t; off : int }

type stats = {
  mutable restarts : int;
  mutable allocs : int; (* inner nodes allocated *)
  mutable retires : int; (* inner nodes retired (CoW) *)
}

type t = {
  machine : Nvm.Machine.t;
  heap : Heap.t;
  meta : Pool.t;
  mo : Pobj.obj; (* meta pool as an object, fields per [meta_l] *)
  gen : int;
  key_of_leaf : Pptr.t -> string;
  compare_leaf : Pptr.t -> string -> int;
  epoch : Epoch.t;
  stats : stats;
}

(* Node header layout (shared by all four node types; the key/index
   and child arrays that follow are per-type, see the geometry
   tables below). *)
let hdr = Layout.create "art.node"

let f_lock = Layout.word ~transient:true hdr "lock"

let f_type = Layout.u8 hdr "type"

let f_plen = Layout.u8 hdr "plen"

let f_count = Layout.u16 hdr "count"

let f_prefix = Layout.bytes ~at:16 hdr "prefix" 16

let hdr_size = Layout.seal hdr

let off_lock = Layout.off f_lock

let off_count = Layout.off f_count

let off_prefix = Layout.off f_prefix

(* 16 stored prefix bytes cover e.g. the paper's "user<digits>" string
   keys without the reconstruct-via-leaf fallback. *)
let stored_prefix_max = Layout.field_size f_prefix

(* Per-type geometry: type 0 = Node4, 1 = Node16, 2 = Node48,
   3 = Node256. *)
let n4_keys = hdr_size (* Node16 keys share this offset *)

let n48_index = hdr_size

let children_off = [| 40; 48; 288; 32 |]

let capacity = [| 4; 16; 48; 256 |]

let node_size = [| 72; 176; 672; 2080 |]

(* Meta-pool layout: generation, root lock, root pointer, then the
   per-thread pending log.  The root pointer follows its lock word, so
   one copy reads both (see [root_snapshot]). *)
let pending_threads = 256

let pending_slots = 8

let meta_l = Layout.create "art.meta"

let f_meta_gen = Layout.word ~at:8 meta_l "gen"

let f_meta_rootlock = Layout.word ~transient:true meta_l "rootlock"

let f_meta_root = Layout.word meta_l "root"

let f_pending =
  Layout.slots ~at:64 meta_l "pending" ~stride:8
    ~count:(pending_threads * pending_slots)

let meta_size = Layout.seal meta_l

let off_meta_root = Layout.off f_meta_root

let off_meta_rootlock = Layout.off f_meta_rootlock

let pending_off i slot =
  Layout.slot f_pending (((i land (pending_threads - 1)) * pending_slots) + slot)

(* ---------- node accessors ---------- *)

(* A node visit addresses a node by its pool and offset, passed as two
   arguments, and builds no record: [node_pool] resolves a child
   pointer's pool, and the offset is [Pptr.off ptr].  Optimistic
   traversal may speculatively dereference a pointer read from a slot
   that a concurrent writer is changing; such reads are discarded by
   version validation, but they must never fault.  A pointer that
   cannot possibly be a node, in a pool the machine never issued or
   out of its pool's bounds, triggers a restart. *)
let node_pool machine ptr =
  if Pptr.pool ptr >= Nvm.Machine.pool_count machine then raise Vlock.Restart;
  let pool = Pptr.resolve machine ptr in
  let off = Pptr.off ptr in
  if off <= 0 || off + node_size.(0) > Pool.capacity pool || off land 7 <> 0 then
    raise Vlock.Restart;
  pool

let count n = Pobj.get_u16 n f_count

let set_count n c = Pobj.set_u16 n f_count c

(* The lock word is a node's first field, so a node is its own lock
   handle, and a visit validates at the node's offset. *)
let () = assert (off_lock = 0)

let check pool off ~gen v =
  if not (Vlock.validate pool off ~gen ~version:v) then raise Vlock.Restart

(* Base-relative offset of child slot [i]; a parent-slot record keeps
   the absolute form, [off + child_rel ty i]. *)
let child_rel ty i = children_off.(ty) + (8 * i)

let byte_at s i = Char.code (String.unsafe_get s i)

(* A key as the trie reads it: its bytes, then the 0 terminator. *)
let key_len k = String.length k + 1

let key_byte k i = if i < String.length k then byte_at k i else 0

(* ---------- header snapshots ---------- *)

(* A node visit reads the node's first line once: the lock word, type,
   prefix length, count, stored prefix, a Node4/16's key bytes, and
   whatever child pointers (Node4 0-2, Node16 0-1, Node256 0-3) or
   Node48 index bytes (0-31) share that line come in one copy into the
   calling thread's scratch buffer ([Vlock.begin_read_snapshot]).  The
   visit decodes the header and takes every field of line 0 from that
   copy, reads from the node only a field past line 0 that it needs,
   and validates the version once.  A descent keeps its copy at
   [snap_visit]; [any_leaf], which reconstructs a long prefix in the
   middle of a visit, keeps its own at [snap_any], so the visit's copy
   survives it.  A descent takes everything it needs from its copy
   before it recurses into a child, whose visit reuses the region;
   after that, the node's fields are read from the node ([no_copy]).
   A leaf check ([compare_leaf], [key_of_leaf]) keeps clear of both
   regions.  An in-place add to a Node48 ([add_child_inplace]), the
   last use of the buffer by an insert, copies the node's index bytes
   past line 0 over its copy's, up to the end of the buffer. *)
let snap_len = 64

let () = assert (n4_keys + capacity.(1) <= snap_len)

let snap_visit = 0

let snap_any = snap_len

(* Copy the header of the node at [off] in [pool] to [base] in [snap]
   and return its version; a retired (obsolete) node must not be used
   at all — restart and re-descend. *)
let snapshot t pool off snap base =
  let v = Vlock.begin_read_snapshot pool off ~gen:t.gen snap base snap_len in
  if Vlock.is_obsolete v then raise Vlock.Restart;
  v

let snap_type snap base =
  let ty = Bytes.get_uint8 snap (base + Layout.off f_type) in
  if ty > 3 then raise Vlock.Restart (* speculative read of a non-node *);
  ty

let snap_plen snap base = Bytes.get_uint8 snap (base + Layout.off f_plen)

(* The child count of a node of type [ty].  Writers keep a Node4/16's
   within a Node16's capacity, so a larger one is a speculative read
   of garbage. *)
let snap_count snap base ty =
  let c = Bytes.get_uint16_le snap (base + off_count) in
  if ty <= 1 && c > capacity.(1) then raise Vlock.Restart;
  c

let snap_key snap base i = Bytes.get_uint8 snap (base + n4_keys + i)

(* The base of a copy that is gone: every field comes from the node. *)
let no_copy = -1

let in_copy base rel len = base >= 0 && rel + len <= snap_len

(* Child slot [i] and Node48 index byte [b] of the node at [off] in
   [pool] whose first line is copied at [base] in [snap]: from the copy
   when the field lies in that line, else from the node. *)
let read_child pool off snap base ty i =
  let rel = child_rel ty i in
  if in_copy base rel 8 then Int64.to_int (Bytes.get_int64_le snap (base + rel))
  else Pool.read_int pool (off + rel)

let idx48 pool off snap base b =
  let rel = n48_index + b in
  if in_copy base rel 1 then Bytes.get_uint8 snap (base + rel) else Pool.read_u8 pool (off + rel)

(* How many key bytes of a node of type [ty] its copy holds: a
   Node4/16's count, [0] for the other types. *)
let snap_keys snap base ty = if ty <= 1 then snap_count snap base ty else 0

(* Where [child_at] leaves the physical index of the child it read, and
   [child_above] the byte of the child it found, in the visiting
   thread's buffer: the caller takes them before anything else on the
   thread uses the buffer. *)
let snap_found = 2 * snap_len

let snap_byte = snap_found + 1

let found_index snap = Bytes.get_uint8 snap snap_found

let found_byte snap = Bytes.get_uint8 snap snap_byte

let found_at snap b p =
  Bytes.set_uint8 snap snap_byte b;
  p

let child_at pool off snap base ty i =
  Bytes.set_uint8 snap snap_found i;
  read_child pool off snap base ty i

(* The first non-null child among the [c] keys equal to [b] of a
   Node4/16 whose header copy is at [base]. *)
let rec child4_16 pool off ty snap base c b i =
  if i >= c then Pptr.null
  else if snap_key snap base i = b then
    let p = child_at pool off snap base ty i in
    if Pptr.is_null p then child4_16 pool off ty snap base c b (i + 1) else p
  else child4_16 pool off ty snap base c b (i + 1)

(* The one child finder: the child for byte [b] of a node of type [ty]
   whose header is at [snap_visit] with [c] copied keys ([Pptr.null]
   if none), its physical index left at [snap_found]. *)
let child_eq pool off snap ty c b =
  match ty with
  | 0 | 1 -> child4_16 pool off ty snap snap_visit c b 0
  | 2 ->
      let s = idx48 pool off snap snap_visit b in
      if s = 0 then Pptr.null else child_at pool off snap snap_visit ty (s - 1)
  | _ -> child_at pool off snap snap_visit ty b

(* Index of the largest copied key byte below [b], or [-1]. *)
let rec key_below snap c b best_b best i =
  if i >= c then best
  else
    let kb = snap_key snap snap_visit i in
    if kb < b && kb >= best_b then key_below snap c b kb i (i + 1)
    else key_below snap c b best_b best (i + 1)

(* What [child_lt] needs from a Node4/16's copy: the index of its
   largest key byte below [b] ([-1] for the other types, whose [c] is
   0). *)
let lt_key snap c b = key_below snap c b (-1) (-1) 0

(* The first non-null child of a Node48 whose first line is copied at
   [base] from byte [byte] on, stepping by [dir] (+1 or -1):
   [Pptr.null] past either end.  The byte of the child it finds is left
   at [snap_byte]. *)
let rec child48_scan pool off snap base byte dir =
  if byte < 0 || byte > 255 then Pptr.null
  else
    let s = idx48 pool off snap base byte in
    let p = if s = 0 then Pptr.null else read_child pool off snap base 2 (s - 1) in
    if Pptr.is_null p then child48_scan pool off snap base (byte + dir) dir
    else found_at snap byte p

let rec child256_scan pool off snap base byte dir =
  if byte < 0 || byte > 255 then Pptr.null
  else
    let p = read_child pool off snap base 3 byte in
    if Pptr.is_null p then child256_scan pool off snap base (byte + dir) dir
    else found_at snap byte p

(* Largest child with byte < [b] ([Pptr.null] if none) of a node whose
   first line is copied at [base] ([no_copy] if the copy is gone): the
   ordered-search primitive of lookup_le, given [lt_key]'s index [j].
   Bounded per-type probing — never a full enumeration. *)
let child_lt pool off snap base ty j b =
  match ty with
  | 0 | 1 -> if j < 0 then Pptr.null else read_child pool off snap base ty j
  | 2 -> child48_scan pool off snap base (b - 1) (-1)
  | _ -> child256_scan pool off snap base (b - 1) (-1)

(* Does [child_lt] over a copy read the node itself?  A Node48's
   children all lie past line 0, so it is taken to. *)
let lt_reads_node ty j b =
  match ty with
  | 0 | 1 -> j >= 0 && not (in_copy 0 (child_rel ty j) 8)
  | 2 -> true
  | _ -> not (in_copy 0 (child_rel ty (b - 1)) 8)

(* The smallest of a Node4/16's [c] copied key bytes above [b], or 256. *)
let rec key_above snap base c b best i =
  if i >= c then best
  else
    let kb = snap_key snap base i in
    key_above snap base c b (if kb > b && kb < best then kb else best) (i + 1)

(* The one child enumerator: the child of the smallest byte above [b]
   of a node of type [ty] whose header copy is at [base] ([Pptr.null]
   if none), its byte left at [snap_byte].  Strictly above, so it
   passes over the exact duplicate of an entry that a crash in
   [remove_child_inplace]'s hole-punch can leave. *)
let rec child_above pool off snap base ty b =
  match ty with
  | 0 | 1 ->
      let c = snap_count snap base ty in
      let kb = key_above snap base c b 256 0 in
      if kb > 255 then Pptr.null
      else
        let p = child4_16 pool off ty snap base c kb 0 in
        if Pptr.is_null p then child_above pool off snap base ty kb else found_at snap kb p
  | 2 -> child48_scan pool off snap base (b + 1) 1
  | _ -> child256_scan pool off snap base (b + 1) 1

(* ---------- persistence helpers ---------- *)

let persist_node_image n ty =
  Pobj.flush n 0 node_size.(ty);
  Pobj.fence n

(* [persist n rel len]: base-relative targeted persistence. *)
let persist n rel len = Pobj.persist n rel len

(* ---------- pending log (allocation / retirement, §5.1(3)) ---------- *)

let free_pending_slots t =
  let tid = Des.Sched.current_id () land (pending_threads - 1) in
  let rec go acc slot =
    if slot >= pending_slots then acc
    else
      go (if Pobj.read_int t.mo (pending_off tid slot) = 0 then acc + 1 else acc)
        (slot + 1)
  in
  go 0 0

(* Mutating operations reserve their worst-case pending-log capacity
   BEFORE acquiring any lock: slots are per-thread, so nobody else can
   consume them afterwards, and waiting here (unpinned, lock-free)
   cannot deadlock with the epoch advancement that recycles slots. *)
let ensure_pending_capacity t n =
  let rec wait attempt =
    if free_pending_slots t < n then begin
      Epoch.unpin_while t.epoch (fun () ->
          Epoch.try_advance t.epoch;
          (* exponential: under saturation the blocking epochs span
             millisecond-long fences *)
          Des.Sched.wait "pending log, epoch held by thread" (Epoch.holder t.epoch) ~attempt
            (Des.Sched.Doubling (200e-9, 10)));
      wait (attempt + 1)
    end
  in
  wait 0

let find_free_pending t =
  let tid = Des.Sched.current_id () land (pending_threads - 1) in
  let rec scan slot =
    if slot >= pending_slots then
      (* cannot happen: capacity was reserved before locking *)
      failwith "Art: pending log underflow (missing reservation)"
    else if Pobj.read_int t.mo (pending_off tid slot) = 0 then pending_off tid slot
    else scan (slot + 1)
  in
  scan 0

(* Allocate an inner node through the pending log: the allocator's
   malloc-to semantics persist the pointer into the log slot
   atomically with the allocation, so a crash can never leak it. *)
let alloc_node t ty =
  let slot = find_free_pending t in
  let ptr = Heap.alloc_to t.heap ~size:node_size.(ty) ~dest_pool:t.meta ~dest_off:slot () in
  t.stats.allocs <- t.stats.allocs + 1;
  ({ pool = node_pool t.machine ptr; off = Pptr.off ptr }, ptr, slot)

let clear_pending t slot =
  Pobj.write_int t.mo slot 0;
  Pobj.clwb t.mo slot

(* Record a node about to become unreachable (CoW commit).  Must be
   persisted before the commit pointer swap. *)
let log_retire t ptr =
  let slot = find_free_pending t in
  Pobj.write_int t.mo slot ptr;
  Pobj.persist t.mo slot 8;
  slot

(* Free a retired node once no reader can hold it (two epochs). *)
let retire t ptr slot =
  t.stats.retires <- t.stats.retires + 1;
  Epoch.defer t.epoch (fun () ->
      Heap.free t.heap ptr;
      clear_pending t slot)

(* ---------- node construction (on unpublished nodes) ---------- *)

let init_node t n ty ~prefix_len ~prefix =
  Pobj.fill_zero n 0 node_size.(ty);
  Vlock.init n.pool n.off ~gen:t.gen;
  Pobj.set_u8 n f_type ty;
  Pobj.set_u8 n f_plen prefix_len;
  let stored = Int.min prefix_len stored_prefix_max in
  for i = 0 to stored - 1 do
    Pobj.write_u8 n (off_prefix + i) (byte_at prefix i)
  done

(* Append a child to a node of type [ty] without any ordering
   constraints — only valid on a node not yet published. *)
let raw_add_child n ty b ptr =
  let c = count n in
  (match ty with
  | 0 | 1 ->
      Pobj.write_u8 n (n4_keys + c) b;
      Pobj.write_int n (child_rel ty c) ptr
  | 2 ->
      Pobj.write_int n (child_rel ty c) ptr;
      Pobj.write_u8 n (n48_index + b) (c + 1)
  | _ -> Pobj.write_int n (child_rel ty b) ptr);
  set_count n (c + 1)

(* ---------- prefix handling ---------- *)

(* Any leaf payload under the node [p] points to; used to reconstruct
   prefix bytes beyond the 16 stored ones (the classic ART "optimistic
   prefix" recovery).  Each node's children are validated against its
   version before the descent uses them — a torn read must never be
   dereferenced. *)
let rec any_leaf t p =
  let pool = node_pool t.machine p in
  let off = Pptr.off p in
  let snap = Des.Sched.scratch () in
  let v = snapshot t pool off snap snap_any in
  let first = child_above pool off snap snap_any (snap_type snap snap_any) (-1) in
  check pool off ~gen:t.gen v;
  if Pptr.is_null first then raise Vlock.Restart (* transiently empty under concurrent SMO *)
  else if Pptr.is_tagged first then Pptr.untag first
  else any_leaf t first

(* The [pl] prefix bytes of the node [p] points to (more than are
   stored), whose subtree starts at key depth [depth], taken from the
   key of a leaf below. *)
let long_prefix t p ~depth pl =
  let leaf_key = t.key_of_leaf (any_leaf t p) in
  (* a prefix is followed by a branch byte, so it ends before the
     terminator *)
  if String.length leaf_key < depth + pl then raise Vlock.Restart;
  String.sub leaf_key depth pl

(* A visit of the node [p] points to matches its [pl] prefix bytes
   (subtree at key depth [depth], header copy at [snap_visit]) against
   its copy, or, when they are more than the copy holds, against
   [long], reconstructed once per visit; [long] is [""] otherwise. *)
let visit_long t p ~depth pl = if pl <= stored_prefix_max then "" else long_prefix t p ~depth pl

let prefix_byte snap long pl i =
  if pl <= stored_prefix_max then Bytes.get_uint8 snap (snap_visit + off_prefix + i)
  else byte_at long i

(* The one prefix matcher: the position of the first prefix byte that
   differs from the key segment at [depth] (or where that segment
   ends), or [pl] if the whole prefix matches.  An insert splits the
   prefix there. *)
let rec mismatch snap long key depth pl i =
  if
    i >= pl
    || depth + i >= key_len key
    || key_byte key (depth + i) <> prefix_byte snap long pl i
  then i
  else mismatch snap long key depth pl (i + 1)

(* The whole prefix of a visit, for a prefix split. *)
let full_prefix snap long pl =
  if pl <= stored_prefix_max then Bytes.sub_string snap (snap_visit + off_prefix) pl else long

(* [match_prefix t p snap ~depth key], for the descents that never
   split a prefix: the key depth after the prefix when it matches, else
   [prefix_before] or [prefix_after], the order of the whole subtree
   against the key. *)
let prefix_before = -1

let prefix_after = -2

let match_prefix t p snap ~depth key =
  let pl = snap_plen snap snap_visit in
  let long = visit_long t p ~depth pl in
  let i = mismatch snap long key depth pl 0 in
  if i = pl then depth + pl
  else if depth + i >= key_len key || key_byte key (depth + i) < prefix_byte snap long pl i
  then prefix_before
  else prefix_after

let restarted t = t.stats.restarts <- t.stats.restarts + 1

(* ---------- construction / open ---------- *)

let read_root t = Pobj.get_int t.mo f_meta_root

let () = assert (off_meta_root = off_meta_rootlock + 8)

(* Copy the root lock word and the root pointer after it with one read
   and return the lock's version; [snap_root] decodes the pointer.  An
   unlocked copy is consistent, so a reader needs no validation. *)
let root_snapshot t =
  Vlock.begin_read_snapshot t.meta off_meta_rootlock ~gen:t.gen (Des.Sched.scratch ()) 0 16

let snap_root () = Int64.to_int (Bytes.get_int64_le (Des.Sched.scratch ()) 8)

(* Opening a trie bumps the persisted generation, which voids every
   lock taken before (§5.7): a restart opens the trie anew. *)
let create ~heap ~meta ~epoch ~key_of_leaf ~compare_leaf =
  if Pool.capacity meta < meta_size then invalid_arg "Art.create: meta pool too small";
  let mo = Pobj.make meta 0 in
  let gen = Pobj.get_int mo f_meta_gen + 1 in
  Pobj.set_int mo f_meta_gen gen;
  Pobj.persist_field mo f_meta_gen;
  {
    machine = Heap.machine heap;
    heap;
    meta;
    mo;
    gen;
    key_of_leaf;
    compare_leaf;
    epoch;
    stats = { restarts = 0; allocs = 0; retires = 0 };
  }

let stats t = t.stats

let generation t = t.gen

(* ---------- lookup ---------- *)

(* The read-only operations are top-level functions over explicit
   arguments, built from allocation-free primitives: every index
   operation routes through [lookup_le].  A descent recurses on the
   child pointer and visits the node at (pool, offset). *)

(* [f t x] inside a [Trie_search] span and an epoch. *)
let searching t f x =
  let span = Obs.Span.start Obs.Span.Trie_search in
  Epoch.enter t.epoch;
  match Vlock.retrying restarted f t x with
  | v ->
      Epoch.exit t.epoch;
      Obs.Span.stop span;
      v
  | exception e ->
      Epoch.exit t.epoch;
      Obs.Span.stop span;
      raise e

let rec descend_eq t key p depth =
  let pool = node_pool t.machine p in
  let off = Pptr.off p in
  let snap = Des.Sched.scratch () in
  let v = snapshot t pool off snap snap_visit in
  let depth' = match_prefix t p snap ~depth key in
  if depth' < 0 || depth' >= key_len key then begin
    check pool off ~gen:t.gen v;
    Pptr.null
  end
  else begin
    let ty = snap_type snap snap_visit in
    let c = snap_keys snap snap_visit ty in
    let child = child_eq pool off snap ty c (key_byte key depth') in
    check pool off ~gen:t.gen v;
    if Pptr.is_null child then Pptr.null
    else if Pptr.is_tagged child then begin
      let payload = Pptr.untag child in
      if t.compare_leaf payload key = 0 then payload else Pptr.null
    end
    else descend_eq t key child (depth' + 1)
  end

let lookup_once t key =
  ignore (root_snapshot t : int);
  let root = snap_root () in
  if Pptr.is_null root then Pptr.null
  else if Pptr.is_tagged root then begin
    let payload = Pptr.untag root in
    if t.compare_leaf payload key = 0 then payload else Pptr.null
  end
  else descend_eq t key root 0

let lookup t key =
  let p = searching t lookup_once key in
  if Pptr.is_null p then None else Some p

(* ---------- ordered search: greatest leaf <= key (§5.3 routing) ---------- *)

(* The greatest leaf under the node at [off] in [pool], whose header
   copy at [snap_visit] has version [v]. *)
let rec max_leaf_of t pool off snap v =
  let ty = snap_type snap snap_visit in
  let c = snap_keys snap snap_visit ty in
  let last = child_lt pool off snap snap_visit ty (lt_key snap c 256) 256 in
  check pool off ~gen:t.gen v;
  if Pptr.is_null last then raise Vlock.Restart
  else if Pptr.is_tagged last then Pptr.untag last
  else max_leaf t last

and max_leaf t p =
  let pool = node_pool t.machine p in
  let off = Pptr.off p in
  let snap = Des.Sched.scratch () in
  max_leaf_of t pool off snap (snapshot t pool off snap snap_visit)

let leaf_le t p key =
  let payload = Pptr.untag p in
  if t.compare_leaf payload key <= 0 then payload else Pptr.null

(* The greatest leaf under the child [lt] (all of whose keys are below
   the search key). *)
let leaf_below t lt =
  if Pptr.is_null lt then Pptr.null
  else if Pptr.is_tagged lt then Pptr.untag lt
  else max_leaf t lt

(* The greatest leaf under the node's children below byte [b] ([j]
   from [lt_key]), read through the copy at [base] ([no_copy]: from the
   node).  The node is validated at version [v] unless the copy was
   [validated] already and the child came from it alone. *)
let leaf_lt t pool off snap v ty j b base ~validated =
  let lt = child_lt pool off snap base ty j b in
  if (not validated) || base = no_copy || lt_reads_node ty j b then check pool off ~gen:t.gen v;
  leaf_below t lt

let rec descend_le t key p depth =
  let pool = node_pool t.machine p in
  let off = Pptr.off p in
  let snap = Des.Sched.scratch () in
  let v = snapshot t pool off snap snap_visit in
  let depth' = match_prefix t p snap ~depth key in
  if depth' = prefix_before then begin
    check pool off ~gen:t.gen v;
    Pptr.null (* whole subtree > key *)
  end
  else if depth' = prefix_after then max_leaf_of t pool off snap v (* whole subtree < key *)
  else if depth' >= key_len key then begin
    (* key exhausted inside the trie: all leaves below extend it and
       are therefore greater *)
    check pool off ~gen:t.gen v;
    Pptr.null
  end
  else begin
    let b = key_byte key depth' in
    let ty = snap_type snap snap_visit in
    let c = snap_keys snap snap_visit ty in
    let eq = child_eq pool off snap ty c b in
    if Pptr.is_null eq then
      leaf_lt t pool off snap v ty (lt_key snap c b) b snap_visit ~validated:false
    else begin
      check pool off ~gen:t.gen v;
      if Pptr.is_tagged eq then begin
        (* the leaf check leaves the validated copy as it was, so the
           key below [b] is looked up in it only when needed *)
        let r = leaf_le t eq key in
        if Pptr.is_null r then
          leaf_lt t pool off snap v ty (lt_key snap c b) b snap_visit ~validated:true
        else r
      end
      else begin
        (* the child's visit reuses the copy's region *)
        let j = lt_key snap c b in
        let r = descend_le t key eq (depth' + 1) in
        if Pptr.is_null r then leaf_lt t pool off snap v ty j b no_copy ~validated:true else r
      end
    end
  end

let lookup_le_once t key =
  ignore (root_snapshot t : int);
  let root = snap_root () in
  if Pptr.is_null root then Pptr.null
  else if Pptr.is_tagged root then leaf_le t root key
  else descend_le t key root 0

let lookup_le t key = searching t lookup_le_once key

(* ---------- insert ---------- *)

type insert_outcome = Inserted | Replaced of Pptr.t
(* [Replaced old] returns the previous payload so the caller can
   reclaim it exactly once (the swap is atomic under the slot lock). *)

(* A writer's descent carries the slot holding the pointer to the
   current node as a pool and three ints: the slot's offset [soff] in
   [spool], and the lock word guarding it (the root lock, or the lock
   of the node holding the slot: always in the same pool) at [slock],
   read at version [sv].  Only a writer about to lock the slot builds
   it into a record. *)
type slot = { s_pool : Pool.t; s_lock : int; s_version : int; s_off : int }

let slot_at spool slock sv soff = { s_pool = spool; s_lock = slock; s_version = sv; s_off = soff }

let read_slot slot = Pool.read_int slot.s_pool slot.s_off

let write_slot slot ptr =
  Pool.write_int slot.s_pool slot.s_off ptr;
  Pool.persist slot.s_pool slot.s_off 8

let try_lock_slot slot ~gen =
  Vlock.try_upgrade slot.s_pool slot.s_lock ~gen ~version:slot.s_version

let release_slot slot ~gen =
  Vlock.release slot.s_pool slot.s_lock ~gen ~version:(slot.s_version + 1)

(* Lock the slot pointing to [n], then [n] at version [nv]: the order
   every structural replacement of [n] takes.  If either fails, release
   what was taken and restart. *)
let lock_slot_and_node slot n ~gen nv =
  if not (try_lock_slot slot ~gen) then raise Vlock.Restart;
  if not (Vlock.try_upgrade n.pool n.off ~gen ~version:nv) then begin
    release_slot slot ~gen;
    raise Vlock.Restart
  end

(* The stored bytes of a prefix of length [pl] in the copy at [base]. *)
let stored_prefix snap base pl =
  if pl = 0 then "" else Bytes.sub_string snap (base + off_prefix) (Int.min pl stored_prefix_max)

let common_prefix_len a b start =
  let la = key_len a and lb = key_len b in
  let rec go i =
    if start + i < la && start + i < lb && key_byte a (start + i) = key_byte b (start + i) then
      go (i + 1)
    else i
  in
  go 0

(* The copy-on-write of every structural change: a new node of type
   [nty] with a prefix of length [prefix_len] whose stored bytes
   [prefix] starts with.  It holds, in byte order, the children of the
   locked node at [off] in [pool] (header copy at [base]) but the one
   at byte [except], then [add] at byte [b] if [b >= 0].  Persisted,
   not yet published: returns its pointer and pending-log slot. *)
let cow_node t nty pool off snap base ~prefix_len ~prefix ~except b add =
  let n, ptr, slot = alloc_node t nty in
  init_node t n nty ~prefix_len ~prefix;
  let rec copy above =
    let p = child_above pool off snap base (snap_type snap base) above in
    if not (Pptr.is_null p) then begin
      let cb = found_byte snap in
      if cb <> except then raw_add_child n nty cb p;
      copy cb
    end
  in
  copy (-1);
  if b >= 0 then raw_add_child n nty b add;
  persist_node_image n nty;
  (ptr, slot)

(* The Node48 slots named by the [n] index bytes at [pos] in [buf], as
   bits of [acc]. *)
let rec used48 buf pos n acc =
  if n = 0 then acc
  else
    let s = Bytes.get_uint8 buf pos in
    let acc = if s > 0 && s <= capacity.(2) then acc lor (1 lsl (s - 1)) else acc in
    used48 buf (pos + 1) (n - 1) acc

(* The first Node48 slot from [i] on that is not in [used].  The count
   admits one more child only if one is free, so none free is a bug. *)
let rec free48 used i =
  if i >= capacity.(2) then invalid_arg "Art: a Node48 below capacity has no free slot"
  else if used land (1 lsl i) = 0 then i
  else free48 used (i + 1)

(* In-place child insertion protocols into locked node [n] of type [ty]
   with [c] children, whose first line is copied at [snap_visit] in
   [snap]: entry persisted first, then the store that makes it visible
   (count / index / pointer).  A Node48 or Node256 count is not that
   store, so it persists before it: a crash can leave a count only high
   (an early grow), never low (a free-slot scan that runs past 48 used
   slots). *)
let add_child_inplace n snap ty c b ptr =
  match ty with
  | 0 | 1 ->
      Pobj.write_u8 n (n4_keys + c) b;
      Pobj.write_int n (child_rel ty c) ptr;
      Pobj.clwb n (n4_keys + c);
      Pobj.clwb n (child_rel ty c);
      Pobj.fence n;
      set_count n (c + 1);
      persist n off_count 2
  | 2 ->
      (* A free physical slot: the used ones as bits of an int, from the
         index bytes in the copy of line 0, then from the rest, copied
         over them with one read. *)
      let in_copy = snap_len - n48_index in
      let used = used48 snap (snap_visit + n48_index) in_copy 0 in
      let rest = 256 - in_copy in
      Pobj.blit_to_bytes n snap_len snap (snap_visit + n48_index) rest;
      let s = free48 (used48 snap (snap_visit + n48_index) rest used) 0 in
      Pobj.write_int n (child_rel ty s) ptr;
      persist n (child_rel ty s) 8;
      set_count n (c + 1);
      persist n off_count 2;
      (* the index byte publishes the child *)
      Pobj.write_u8 n (n48_index + b) (s + 1);
      persist n (n48_index + b) 1
  | _ ->
      set_count n (c + 1);
      persist n off_count 2;
      Pobj.write_int n (child_rel ty b) ptr;
      persist n (child_rel ty b) 8

(* Split a leaf: make a Node4 holding the old leaf and the new one,
   commit by swapping the slot pointer (atomic). *)
let split_leaf t key payload slot old_ptr depth =
  let gen = t.gen in
  if not (try_lock_slot slot ~gen) then raise Vlock.Restart;
  let old_key = t.key_of_leaf (Pptr.untag old_ptr) in
  if String.equal old_key key then begin
    (* duplicate: replace the payload pointer *)
    write_slot slot (Pptr.tagged payload);
    release_slot slot ~gen;
    Replaced (Pptr.untag old_ptr)
  end
  else begin
    let cpl = common_prefix_len old_key key depth in
    assert (depth + cpl < key_len key && depth + cpl < key_len old_key);
    let n, nptr, pslot = alloc_node t 0 in
    init_node t n 0 ~prefix_len:cpl ~prefix:(String.sub key depth cpl);
    raw_add_child n 0 (key_byte old_key (depth + cpl)) old_ptr;
    raw_add_child n 0 (key_byte key (depth + cpl)) (Pptr.tagged payload);
    persist_node_image n 0;
    write_slot slot nptr;
    clear_pending t pslot;
    release_slot slot ~gen;
    Inserted
  end

(* The writers below take what they know of the node [n] they lock at
   version [nv] from the copy at [snap_visit] that the visit read [nv]
   with: locking at that version proves the copy is the header. *)

(* Prefix split at position [i] of [n]'s prefix [full]: CoW the node
   with a shortened prefix, hang it and the new leaf under a fresh
   Node4, commit via the parent slot. *)
let prefix_split t key payload slot n nv depth i full =
  let gen = t.gen in
  lock_slot_and_node slot n ~gen nv;
  assert (depth + i < key_len key);
  let old_ptr = read_slot slot in
  let pl = String.length full in
  let snap = Des.Sched.scratch () in
  let cptr, cslot =
    cow_node t (snap_type snap snap_visit) n.pool n.off snap snap_visit ~prefix_len:(pl - i - 1)
      ~prefix:(String.sub full (i + 1) (pl - i - 1)) ~except:(-1) (-1) Pptr.null
  in
  let n4, nptr, pslot = alloc_node t 0 in
  init_node t n4 0 ~prefix_len:i ~prefix:(String.sub full 0 i);
  raw_add_child n4 0 (byte_at full i) cptr;
  raw_add_child n4 0 (key_byte key (depth + i)) (Pptr.tagged payload);
  persist_node_image n4 0;
  let rslot = log_retire t old_ptr in
  write_slot slot nptr (* commit *);
  clear_pending t cslot;
  clear_pending t pslot;
  retire t old_ptr rslot;
  Vlock.release_obsolete n.pool n.off ~gen ~version:(nv + 1);
  release_slot slot ~gen;
  Inserted

(* Grow a full node to the next type (CoW) and add the new child. *)
let grow_and_add t payload slot n nv ty b =
  let gen = t.gen in
  lock_slot_and_node slot n ~gen nv;
  let old_ptr = read_slot slot in
  assert (ty < 3);
  let snap = Des.Sched.scratch () in
  let pl = snap_plen snap snap_visit in
  let bptr, bslot =
    cow_node t (ty + 1) n.pool n.off snap snap_visit ~prefix_len:pl
      ~prefix:(stored_prefix snap snap_visit pl) ~except:(-1) b (Pptr.tagged payload)
  in
  let rslot = log_retire t old_ptr in
  write_slot slot bptr;
  clear_pending t bslot;
  retire t old_ptr rslot;
  Vlock.release_obsolete n.pool n.off ~gen ~version:(nv + 1);
  release_slot slot ~gen;
  Inserted

(* Visit the node [cur] points to (or split the leaf it is), reached
   through the slot ([spool], [slock], [sv], [soff]). *)
let rec insert_descend t key payload spool slock sv soff cur depth =
  if Pptr.is_tagged cur then split_leaf t key payload (slot_at spool slock sv soff) cur depth
  else begin
    let gen = t.gen in
    let pool = node_pool t.machine cur in
    let off = Pptr.off cur in
    let snap = Des.Sched.scratch () in
    let v = snapshot t pool off snap snap_visit in
    let pl = snap_plen snap snap_visit in
    let long = visit_long t cur ~depth pl in
    let i = mismatch snap long key depth pl 0 in
    let depth' = depth + pl in
    if i < pl then begin
      check pool off ~gen v;
      prefix_split t key payload (slot_at spool slock sv soff) { pool; off } v depth i
        (full_prefix snap long pl)
    end
    else if depth' >= key_len key then begin
      check pool off ~gen v;
      raise Vlock.Restart (* impossible for prefix-free keys unless racing *)
    end
    else begin
      let b = key_byte key depth' in
      let ty = snap_type snap snap_visit in
      let c = snap_count snap snap_visit ty in
      let p = child_eq pool off snap ty c b in
      let found = off + child_rel ty (found_index snap) in
      check pool off ~gen v;
      if not (Pptr.is_null p) then insert_descend t key payload pool off v found p (depth' + 1)
      else if c < capacity.(ty) then begin
        if not (Vlock.try_upgrade pool off ~gen ~version:v) then raise Vlock.Restart;
        add_child_inplace { pool; off } snap ty c b (Pptr.tagged payload);
        Vlock.release pool off ~gen ~version:(v + 1);
        Inserted
      end
      else grow_and_add t payload (slot_at spool slock sv soff) { pool; off } v ty b
    end
  end

let insert_once t key payload =
  let gen = t.gen in
  let rv = root_snapshot t in
  let root = snap_root () in
  if Pptr.is_null root then begin
    if not (Vlock.try_upgrade t.meta off_meta_rootlock ~gen ~version:rv) then raise Vlock.Restart;
    Pobj.set_int t.mo f_meta_root (Pptr.tagged payload);
    Pobj.persist_field t.mo f_meta_root;
    Vlock.release t.meta off_meta_rootlock ~gen ~version:(rv + 1);
    Inserted
  end
  else insert_descend t key payload t.meta off_meta_rootlock rv off_meta_root root 0

let insert t key payload =
  Obs.Span.with_phase Obs.Span.Trie_search @@ fun () ->
  Epoch.enter t.epoch;
  Fun.protect ~finally:(fun () -> Epoch.exit t.epoch) @@ fun () ->
  ensure_pending_capacity t 4;
  Vlock.retrying restarted (fun t () -> insert_once t key payload) t ()

(* ---------- delete ---------- *)

(* Remove the child for byte [b] (present) from locked node [n] of type
   [ty] with [c] children, whose header copy is at [snap_visit] in
   [snap]. *)
let remove_child_inplace n snap ty c b =
  match ty with
  | 0 | 1 ->
      let rec find i = if snap_key snap snap_visit i = b then i else find (i + 1) in
      let i = find 0 in
      let last = c - 1 in
      if i <> last then begin
        (* Hole-punch protocol: compacting last into the hole rewrites
           a *live* slot, so each store gets its own fence — a crash
           between any two leaves a state readers handle (they skip
           null children; [child_above] passes over the transient
           exact duplicate of the last entry).  Writing key byte and
           pointer under one fence is not failure-atomic: on a Node16
           they sit on different cache lines, and (new byte, old
           pointer) would route the moved key to the deleted child. *)
        Pobj.write_int n (child_rel ty i) Pptr.null;
        persist n (child_rel ty i) 8;
        Pobj.write_u8 n (n4_keys + i) (snap_key snap snap_visit last);
        persist n (n4_keys + i) 1;
        Pobj.write_int n (child_rel ty i) (read_child n.pool n.off snap snap_visit ty last);
        persist n (child_rel ty i) 8
      end;
      set_count n last;
      persist n off_count 2
  | 2 ->
      (* The index clear commits the removal; count follows in its own
         epoch so it can only lag *high* — a low count would make the
         in-place add's free-slot scan run past 48 used slots. *)
      Pobj.write_u8 n (n48_index + b) 0;
      persist n (n48_index + b) 1;
      set_count n (c - 1);
      persist n off_count 2
  | _ ->
      Pobj.write_int n (child_rel ty b) Pptr.null;
      persist n (child_rel ty b) 8;
      set_count n (Int.max 0 (c - 1));
      persist n off_count 2

let shrink_threshold = [| 0; 3; 12; 40 |]

(* Does removing one of the [c] children of a node of type [ty] take a
   structural change (shrink or path compression)? *)
let needs_shrink ty c = (ty = 0 && c <= 2) || (ty > 0 && c - 1 <= shrink_threshold.(ty))

(* The first child above byte [above] of the locked node at [off] in
   [pool] but the one at byte [b] (header copy at [snap_visit]). *)
let survivor_above pool off snap ty b above =
  let p = child_above pool off snap snap_visit ty above in
  if (not (Pptr.is_null p)) && found_byte snap = b then
    child_above pool off snap snap_visit ty b
  else p

(* Remove the leaf [payload] at byte [b] from [n] (of type [ty], whose
   prefix starts at key depth [depth]), which has underflowed: CoW-shrink
   it (or path-compress a Node4 with one survivor) and commit via
   [slot].  Locking [n] at [nv] proves it still is what the descent
   saw. *)
let remove_and_shrink t key slot n nv ty b payload ~depth =
  let gen = t.gen in
  lock_slot_and_node slot n ~gen nv;
  let old_ptr = read_slot slot in
  let snap = Des.Sched.scratch () in
  let p = survivor_above n.pool n.off snap ty b (-1) in
  let sb = found_byte snap in
  (if Pptr.is_null p then begin
     (* Root-only situation: the tree is emptying. *)
     let rslot = log_retire t old_ptr in
     write_slot slot Pptr.null;
     retire t old_ptr rslot
   end
   else if ty = 0 && Pptr.is_null (survivor_above n.pool n.off snap ty b sb) then begin
      if Pptr.is_tagged p then begin
        (* Path compression: the leaf replaces the node. *)
        let rslot = log_retire t old_ptr in
        write_slot slot p;
        retire t old_ptr rslot
      end
      else begin
        (* Merge prefixes: CoW the child with the combined prefix
           node.prefix + branch byte + child.prefix. *)
        let child = { pool = node_pool t.machine p; off = Pptr.off p } in
        let cv = Vlock.acquire child.pool child.off ~gen in
        (* The child was locked without a visit: its header comes from
           a plain copy taken under the lock.  [n]'s prefix is the
           key's (the descent matched it), and the child's stored bytes
           cover all the merged prefix bytes a node stores. *)
        Pool.blit_to_bytes child.pool child.off snap snap_any snap_len;
        let pl = snap_plen snap snap_visit and cpl = snap_plen snap snap_any in
        let prefix =
          String.sub key depth pl ^ String.make 1 (Char.chr sb) ^ stored_prefix snap snap_any cpl
        in
        let cptr, cslot =
          cow_node t (snap_type snap snap_any) child.pool child.off snap snap_any
            ~prefix_len:(pl + 1 + cpl) ~prefix ~except:(-1) (-1) Pptr.null
        in
        let r1 = log_retire t old_ptr in
        let r2 = log_retire t p in
        write_slot slot cptr;
        clear_pending t cslot;
        retire t old_ptr r1;
        retire t p r2;
        Vlock.release_obsolete child.pool child.off ~gen ~version:cv
      end
   end
   else begin
     (* CoW shrink to the next smaller type (or same type for
        Node4 with >1 survivors — cannot happen given the guard). *)
     let pl = snap_plen snap snap_visit in
     let sptr, sslot =
       cow_node t (Int.max 0 (ty - 1)) n.pool n.off snap snap_visit ~prefix_len:pl
         ~prefix:(stored_prefix snap snap_visit pl) ~except:b (-1) Pptr.null
     in
     let rslot = log_retire t old_ptr in
     write_slot slot sptr;
     clear_pending t sslot;
     retire t old_ptr rslot
   end);
  (* every structural case retires [n] *)
  Vlock.release_obsolete n.pool n.off ~gen ~version:(nv + 1);
  release_slot slot ~gen;
  Some payload

(* Visit the node [cur] points to (or remove the root leaf it is),
   reached through the slot ([spool], [slock], [sv], [soff]); the leaf
   it finds is removed at its parent. *)
let rec delete_descend t key spool slock sv soff cur depth =
  let gen = t.gen in
  if Pptr.is_tagged cur then begin
    (* Leaf directly in the slot (root or under a node). *)
    if t.compare_leaf (Pptr.untag cur) key = 0 then begin
      (* only reachable for the root leaf: inner leaves are handled
         at their parent *)
      let slot = slot_at spool slock sv soff in
      if not (try_lock_slot slot ~gen) then raise Vlock.Restart;
      write_slot slot Pptr.null;
      release_slot slot ~gen;
      Some (Pptr.untag cur)
    end
    else None
  end
  else begin
    let pool = node_pool t.machine cur in
    let off = Pptr.off cur in
    let snap = Des.Sched.scratch () in
    let v = snapshot t pool off snap snap_visit in
    let depth' = match_prefix t cur snap ~depth key in
    if depth' < 0 || depth' >= key_len key then begin
      check pool off ~gen v;
      None
    end
    else begin
      let b = key_byte key depth' in
      let ty = snap_type snap snap_visit in
      let c = snap_count snap snap_visit ty in
      let p = child_eq pool off snap ty c b in
      let found = off + child_rel ty (found_index snap) in
      check pool off ~gen v;
      if Pptr.is_null p then None
      else if Pptr.is_tagged p then begin
        let payload = Pptr.untag p in
        if t.compare_leaf payload key <> 0 then None
        else if needs_shrink ty c then
          remove_and_shrink t key (slot_at spool slock sv soff) { pool; off } v ty b payload
            ~depth
        else begin
          if not (Vlock.try_upgrade pool off ~gen ~version:v) then raise Vlock.Restart;
          remove_child_inplace { pool; off } snap ty c b;
          Vlock.release pool off ~gen ~version:(v + 1);
          Some payload
        end
      end
      else delete_descend t key pool off v found p (depth' + 1)
    end
  end

let delete_once t key =
  let rv = root_snapshot t in
  let root = snap_root () in
  if Pptr.is_null root then None
  else delete_descend t key t.meta off_meta_rootlock rv off_meta_root root 0

let delete t key =
  Obs.Span.with_phase Obs.Span.Trie_search @@ fun () ->
  Epoch.enter t.epoch;
  Fun.protect ~finally:(fun () -> Epoch.exit t.epoch) @@ fun () ->
  ensure_pending_capacity t 4;
  Vlock.retrying restarted delete_once t key

(* ---------- ordered iteration (baseline scans) ---------- *)

(* [f acc cb c] over the children [c] (at byte [cb]) of the node at
   [off] in [pool] above byte [b], in byte order.  Each step is a node
   visit — a header copy, [child_above], one validation — so [f] may
   visit other nodes; a node changed in place is walked on from the
   byte it was at, and only a retired one restarts. *)
let rec fold_above t pool off b f acc =
  let snap = Des.Sched.scratch () in
  let v = snapshot t pool off snap snap_visit in
  let c = child_above pool off snap snap_visit (snap_type snap snap_visit) b in
  let cb = found_byte snap in
  check pool off ~gen:t.gen v;
  if Pptr.is_null c then acc else fold_above t pool off cb f (f acc cb c)

exception Stop

(* A scan emits the leaves from [lo] on to [f], in key order, and keeps
   the last one it emitted: a restart resumes strictly after it, from
   a fresh root.  Before a scan emits its first leaf, a leaf equal to
   [lo] is emitted; after it, [lo] is the key of [last]. *)
type scan = { f : Pptr.t -> bool; mutable lo : string; mutable last : Pptr.t }

(* The leaves under [p] (a subtree at key depth [depth]): from the
   scan's bound on if [from], else all of them. *)
let rec scan_walk t s p depth from =
  if Pptr.is_tagged p then begin
    let payload = Pptr.untag p in
    if (not from) || t.compare_leaf payload s.lo >= if Pptr.is_null s.last then 0 else 1 then begin
      s.last <- payload;
      if not (s.f payload) then raise Stop
    end
  end
  else if not from then scan_children t s p (-1) (-1) 0
  else begin
    let pool = node_pool t.machine p in
    let off = Pptr.off p in
    let snap = Des.Sched.scratch () in
    let v = snapshot t pool off snap snap_visit in
    let depth' = match_prefix t p snap ~depth s.lo in
    check pool off ~gen:t.gen v;
    if depth' = prefix_before || depth' >= key_len s.lo then scan_children t s p (-1) (-1) 0
    else if depth' <> prefix_after then
      let kb = key_byte s.lo depth' in
      scan_children t s p (kb - 1) kb (depth' + 1)
  end

(* The children of the node [p] points to above byte [b]; the one at
   byte [kb] holds the bound, at key depth [depth]. *)
and scan_children t s p b kb depth =
  fold_above t (node_pool t.machine p) (Pptr.off p) b
    (fun () cb c -> scan_walk t s c depth (cb = kb))
    ()

let scan_once t s =
  if not (Pptr.is_null s.last) then s.lo <- t.key_of_leaf s.last;
  ignore (root_snapshot t : int);
  let root = snap_root () in
  if not (Pptr.is_null root) then scan_walk t s root 0 true

let iter_from t key f =
  Epoch.enter t.epoch;
  Fun.protect ~finally:(fun () -> Epoch.exit t.epoch) @@ fun () ->
  try Vlock.retrying restarted scan_once t { f; lo = key; last = Pptr.null } with Stop -> ()

(* ---------- recovery (§5.1, §5.9) ---------- *)

(* Depth-first reachability of [target] (an untagged pointer that may
   be an inner node or a leaf payload). *)
let reachable t target =
  let rec visit cur =
    Pptr.untag cur = target
    || (not (Pptr.is_tagged cur))
       && fold_above t (node_pool t.machine cur) (Pptr.off cur) (-1)
            (fun found _ c -> found || visit c)
            false
  in
  let root = read_root t in
  (not (Pptr.is_null root)) && visit root

(* Clear every occupied pending-log slot, passing its pointer to [f]
   first, then fence once. *)
let sweep_pending t f =
  for tid = 0 to pending_threads - 1 do
    for slot = 0 to pending_slots - 1 do
      let off = pending_off tid slot in
      let ptr = Pobj.read_int t.mo off in
      if ptr <> 0 then begin
        f ptr;
        Pobj.write_int t.mo off 0;
        Pobj.clwb t.mo off
      end
    done
  done;
  Pobj.fence t.mo

let recover t =
  Obs.Span.with_phase Obs.Span.Recovery @@ fun () ->
  (* Free whatever never got linked (allocation interrupted) or
     already got unlinked (retirement committed). *)
  let freed = ref 0 in
  sweep_pending t (fun ptr ->
      if not (reachable t (Pptr.untag ptr)) then begin
        Heap.free t.heap (Pptr.untag ptr);
        incr freed
      end);
  !freed

(* Drop the whole trie without freeing: used when the backing pool was
   volatile (DRAM search layer) and has been wiped by a crash. *)
let reset t =
  Pobj.set_int t.mo f_meta_root Pptr.null;
  Pobj.persist_field t.mo f_meta_root;
  sweep_pending t ignore

(* ---------- introspection (tests) ---------- *)

let root_off = off_meta_root

let rec subtree_size t cur =
  if Pptr.is_tagged cur then 1
  else
    fold_above t (node_pool t.machine cur) (Pptr.off cur) (-1)
      (fun acc _ c -> acc + subtree_size t c)
      0

let cardinal t =
  let root = read_root t in
  if Pptr.is_null root then 0 else subtree_size t root
