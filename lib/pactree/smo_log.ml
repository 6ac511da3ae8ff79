module Pool = Nvm.Pool
module Pptr = Pmalloc.Pptr
module Layout = Pobj.Layout

(* Entry layout (128 bytes, two cache lines).  A persisted nonzero
   state implies a complete entry (fields persist first). *)
let lay = Layout.create "smo_log.entry"

let f_state = Layout.word lay "state" (* 0 free / 1 split / 2 merge *)

let f_ts = Layout.word lay "ts"

let f_left = Layout.word lay "left"

let f_aux = Layout.word lay "aux" (* new node (split) / right node (merge) *)

let f_anchor_len = Layout.word lay "anchor_len"

let f_anchor = Layout.bytes lay "anchor" 32

let entry_size = Layout.seal ~size:128 lay

let rings = 256

let entries_per_ring = 64

let region_size = rings * entries_per_ring * entry_size

type t = {
  pools : Pool.t array;
  base : int;
  cursors : (int, int) Hashtbl.t; (* thread id -> next slot hint *)
  used : int array;
      (* volatile: active entries of each ring, pool-major; kept by
         [append] and [clear], recounted by [iter_active] *)
}

type entry_ref = Pobj.obj = { pool : Pool.t; off : int }

type payload =
  | Split of { left : Pptr.t; anchor : Key.t }
  | Merge of { left : Pptr.t; right : Pptr.t; anchor : Key.t }

let create pools ~base =
  Array.iter
    (fun p ->
      if Pool.capacity p < base + region_size then
        invalid_arg "Smo_log.create: log pool too small")
    pools;
  { pools; base; cursors = Hashtbl.create 64; used = Array.make (Array.length pools * rings) 0 }

let ring_base t tid = t.base + (tid land (rings - 1)) * entries_per_ring * entry_size

let state e = Pobj.get_int e f_state

let write_fields e ~ts ~left ~aux0 ~anchor ~kind =
  Pobj.set_int e f_ts ts;
  Pobj.set_int e f_left left;
  Pobj.set_int e f_aux aux0;
  Pobj.set_int e f_anchor_len (String.length anchor);
  Pobj.write_string e (Layout.off f_anchor) anchor;
  (* Fields first, then the state flag: a persisted nonzero state
     implies a complete entry. *)
  Pobj.persist_obj e lay;
  Pobj.set_int e f_state kind;
  Pobj.persist_field e f_state

let write_entry e ~ts = function
  | Split { left; anchor } -> write_fields e ~ts ~left ~aux0:Pptr.null ~anchor ~kind:1
  | Merge { left; right; anchor } -> write_fields e ~ts ~left ~aux0:right ~anchor ~kind:2

(* The calling thread's ring: the one on its NUMA domain's pool. *)
let own_pool t =
  let numa = Des.Sched.current_numa () and n = Array.length t.pools in
  if numa < n then numa else numa mod n

let own_ring t = (own_pool t * rings) + (Des.Sched.current_id () land (rings - 1))

let rec pool_index pools pool i = if pools.(i) == pool then i else pool_index pools pool (i + 1)

let entry_ring t e =
  (pool_index t.pools e.pool 0 * rings) + ((e.off - t.base) / (entries_per_ring * entry_size))

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

let aux_off e = e.off + Layout.off f_aux

let aux e = Pobj.get_int e f_aux

let read e =
  match state e with
  | 0 -> None
  | kind ->
      let ts = Pobj.get_int e f_ts in
      let left = Pobj.get_int e f_left in
      let aux0 = Pobj.get_int e f_aux in
      let alen = Pobj.get_int e f_anchor_len in
      let anchor = Pobj.read_string e (Layout.off f_anchor) alen in
      let payload =
        if kind = 1 then Split { left; anchor }
        else Merge { left; right = aux0; anchor }
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
          let off = t.base + (ring * entries_per_ring * entry_size) + (slot * entry_size) in
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
