module Pool = Nvm.Pool
module Pptr = Pmalloc.Pptr
module Layout = Pobj.Layout

(* Entry layout (128 bytes, two cache lines).  A persisted nonzero
   state implies a complete entry (fields persist first). *)
let lay = Layout.create "smo_log.entry"

let f_state = Layout.word lay "state" (* 0 free / 1 split / 2 merge *)

let f_ts = Layout.word lay "ts"

let f_left = Layout.word lay "left"

let f_right = Layout.word lay "right" (* the new node (split) / the absorbed one (merge) *)

let f_anchor_len = Layout.word lay "anchor_len"

let f_anchor = Layout.bytes lay "anchor" 32

(* A ring's spare slot is the last word of its last entry, a word no
   entry uses: the thread's own memory, on its NUMA domain, in a line
   its ring already has. *)
let f_spare = Layout.word ~at:120 lay "spare"

let entry_size = Layout.seal ~size:128 lay

let rings = 256

let max_writers = rings

let entries_per_ring = 64

let ring_size = entries_per_ring * entry_size

let region_size = rings * ring_size

type t = {
  pools : Pool.t array;
  base : int;
  cursors : (int, int) Hashtbl.t; (* thread id -> next slot hint *)
  used : int array;
      (* volatile: active entries of each ring, pool-major; kept by
         [append] and [clear], recounted by [iter_active] *)
  spares : Pptr.t array;
      (* volatile: each ring's spare slot as persisted, pool-major;
         kept by [refill] and [clear_spare], rebuilt by
         [recover_spares] *)
  filling : Bytes.t;
      (* volatile: nonzero while a refill of the ring's slot waits
         for the allocator, pool-major *)
}

type entry_ref = Pobj.obj = { pool : Pool.t; off : int }

type payload =
  | Split of { left : Pptr.t; right : Pptr.t; anchor : Key.t }
  | Merge of { left : Pptr.t; right : Pptr.t; anchor : Key.t }

let create pools ~base =
  Array.iter
    (fun p ->
      if Pool.capacity p < base + region_size then
        invalid_arg "Smo_log.create: log pool too small")
    pools;
  let n = Array.length pools * rings in
  {
    pools;
    base;
    cursors = Hashtbl.create 64;
    used = Array.make n 0;
    spares = Array.make n Pptr.null;
    filling = Bytes.make n '\000';
  }

let ring_base t tid = t.base + ((tid land (rings - 1)) * ring_size)

let state e = Pobj.get_int e f_state

let write_fields e ~ts ~left ~right ~anchor ~kind =
  Pobj.set_int e f_ts ts;
  Pobj.set_int e f_left left;
  Pobj.set_int e f_right right;
  Pobj.set_int e f_anchor_len (String.length anchor);
  Pobj.write_string e (Layout.off f_anchor) anchor;
  (* Fields first, then the state flag: a persisted nonzero state
     implies a complete entry. *)
  Pobj.persist_obj e lay;
  Pobj.set_int e f_state kind;
  Pobj.persist_field e f_state

let write_entry e ~ts = function
  | Split { left; right; anchor } -> write_fields e ~ts ~left ~right ~anchor ~kind:1
  | Merge { left; right; anchor } -> write_fields e ~ts ~left ~right ~anchor ~kind:2

(* The calling thread's ring: the one on its NUMA domain's pool. *)
let own_pool t =
  let numa = Des.Sched.current_numa () and n = Array.length t.pools in
  if numa < n then numa else numa mod n

let own_ring t = (own_pool t * rings) + (Des.Sched.current_id () land (rings - 1))

let rec pool_index pools pool i = if pools.(i) == pool then i else pool_index pools pool (i + 1)

let entry_ring t e =
  (pool_index t.pools e.pool 0 * rings) + ((e.off - t.base) / ring_size)

let has_free t = t.used.(own_ring t) < entries_per_ring

(* A full ring back-pressures the writer until the updater catches up
   (§5.6).  The writer waits before it takes any lock, as
   [Art.ensure_pending_capacity] does: the ring is its own, so the
   entry is still free when its split or merge comes, and the wait
   (unpinned, lock-free) cannot hold back the epoch advance that the
   updater needs to drain the rings. *)
let rec wait_free t epoch attempt =
  if not (has_free t) then begin
    Epoch.unpin_while epoch (fun () ->
        Epoch.try_advance epoch;
        Des.Sched.wait "smo ring of thread" (Des.Sched.current_id ()) ~attempt
          (Des.Sched.Doubling (500e-9, 9)));
    wait_free t epoch (attempt + 1)
  end

let reserve t epoch = if not (has_free t) then wait_free t epoch 0

(* The first free entry of thread [tid]'s ring in [pool] from slot [i]
   on, having tried [tried] slots. *)
let rec find_free t pool tid i tried =
  if tried >= entries_per_ring then
    (* cannot happen: the entry was reserved before locking *)
    failwith "Smo_log: ring full (missing reservation)"
  else
    let e = { pool; off = ring_base t tid + (i mod entries_per_ring * entry_size) } in
    if state e = 0 then begin
      Hashtbl.replace t.cursors tid ((i + 1) mod entries_per_ring);
      e
    end
    else find_free t pool tid (i + 1) (tried + 1)

let append_entry t ts payload =
  let tid = Des.Sched.current_id () in
  let pool = t.pools.(own_pool t) in
  let hint = match Hashtbl.find t.cursors tid with h -> h | exception Not_found -> 0 in
  let e = find_free t pool tid hint 0 in
  let ring = own_ring t in
  t.used.(ring) <- t.used.(ring) + 1;
  write_entry e ~ts payload;
  e

let append t ~ts payload =
  let span = Obs.Span.start Obs.Span.Smo in
  match append_entry t ts payload with
  | e ->
      Obs.Span.stop span;
      e
  | exception e ->
      Obs.Span.stop span;
      raise e

let read e =
  match state e with
  | 0 -> None
  | kind ->
      let ts = Pobj.get_int e f_ts in
      let left = Pobj.get_int e f_left in
      let right = Pobj.get_int e f_right in
      let alen = Pobj.get_int e f_anchor_len in
      let anchor = Pobj.read_string e (Layout.off f_anchor) alen in
      let payload =
        if kind = 1 then Split { left; right; anchor } else Merge { left; right; anchor }
      in
      Some (ts, payload)

let clear t e =
  let ring = entry_ring t e in
  t.used.(ring) <- t.used.(ring) - 1;
  Pobj.set_int e f_state 0;
  Pobj.persist_field e f_state

let iter_active t ~f =
  Array.fill t.used 0 (Array.length t.used) 0;
  Array.iteri
    (fun i pool ->
      for ring = 0 to rings - 1 do
        for slot = 0 to entries_per_ring - 1 do
          let off = ring_base t ring + (slot * entry_size) in
          let e = { pool; off } in
          if state e <> 0 then begin
            let r = (i * rings) + ring in
            t.used.(r) <- t.used.(r) + 1;
            f e
          end
        done
      done)
    t.pools

let active_count t =
  let n = ref 0 in
  iter_active t ~f:(fun _ -> incr n);
  !n

(* ---------- spare data nodes ---------- *)

(* The spare slot of ring [r] (pool-major): its pool and offset, apart,
   so that a refill builds no record. *)
let spare_pool t r = t.pools.(r / rings)

let spare_off t r = ring_base t r + ((entries_per_ring - 1) * entry_size) + Layout.off f_spare

let shared_slot () =
  failwith
    (Printf.sprintf
       "Smo_log: two writer threads share a spare slot (a tree takes at most %d writers)"
       max_writers)

let spare t =
  let p = t.spares.(own_ring t) in
  if Pptr.is_null p then shared_slot ();
  p

(* The slot is empty only after a split took its node, and that split
   persisted the empty slot before it returned.  The slot is written
   only with non-temporal stores, here and in [clear_spare]: nothing
   reads it before recovery, and its line, which the last of them left
   uncached, is then not read for ownership inside the allocator's
   mutex. *)
let refill t heap ~size =
  let r = own_ring t in
  if Pptr.is_null t.spares.(r) then begin
    (* Two allocations into one slot would lose the first node. *)
    if Bytes.get t.filling r <> '\000' then shared_slot ();
    Bytes.set t.filling r '\001';
    match
      Pmalloc.Heap.alloc_to heap ~nt:true ~size ~dest_pool:(spare_pool t r)
        ~dest_off:(spare_off t r) ()
    with
    | p ->
        t.spares.(r) <- p;
        Bytes.set t.filling r '\000'
    | exception e ->
        Bytes.set t.filling r '\000';
        raise e
  end

let null_word = Bytes.make 8 '\000'

let () = assert (Bytes.get_int64_le null_word 0 = Int64.of_int Pptr.null)

let clear_spare t =
  let r = own_ring t in
  t.spares.(r) <- Pptr.null;
  Pool.ntstore (spare_pool t r) (spare_off t r) null_word 0 8

let recover_spares t ~owned =
  for r = 0 to Array.length t.spares - 1 do
    let pool = spare_pool t r and off = spare_off t r in
    let p = Pool.read_int pool off in
    if (not (Pptr.is_null p)) && owned p then begin
      Pool.write_int pool off Pptr.null;
      Pool.persist pool off 8;
      t.spares.(r) <- Pptr.null
    end
    else t.spares.(r) <- p
  done

let spares t =
  List.filter
    (fun p -> not (Pptr.is_null p))
    (List.init (Array.length t.spares) (fun r ->
         Pool.media_read_int (spare_pool t r) (spare_off t r)))
