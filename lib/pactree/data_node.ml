module Pool = Nvm.Pool
module Pptr = Pmalloc.Pptr
module Layout = Pobj.Layout

let entries = 64

(* Fixed node header (256 bytes); key-value slots follow at a stride
   chosen per tree instance (see [layout] below).  The lock word and
   the permutation cache are transient: the former is voided by the
   generation bump after a crash, the latter is rebuilt from the
   persistent slots (§5.2) — unless the persist_perm ablation flushes
   it explicitly. *)
let hdr = Layout.create "data_node.hdr"

let f_lock = Layout.word ~transient:true hdr "lock"

let f_bitmap = Layout.i64 hdr "bitmap"

let f_next = Layout.word hdr "next"

let f_prev = Layout.word hdr "prev"

let f_deleted = Layout.word hdr "deleted"

let f_perm_version = Layout.word ~transient:true hdr "perm_version"

let f_anchor_len = Layout.word hdr "anchor_len"

let f_fingerprints = Layout.bytes ~at:64 hdr "fingerprints" 64

let f_permutation = Layout.bytes ~at:128 ~transient:true hdr "permutation" 64

let f_anchor = Layout.bytes ~at:192 hdr "anchor" 64

let off_kv = Layout.seal hdr

let off_lock = Layout.off f_lock

let off_next = Layout.off f_next

let off_prev = Layout.off f_prev

let off_deleted = Layout.off f_deleted

let off_fingerprints = Layout.off f_fingerprints

let off_permutation = Layout.off f_permutation

let off_anchor = Layout.off f_anchor

type layout = { inline : int; stride : int; node_size : int; persist_perm : bool }

let round_up x align = (x + align - 1) / align * align

let layout ?(persist_perm = false) ~key_inline () =
  if key_inline <> 8 && key_inline <> Key.max_len then
    invalid_arg "Data_node.layout: key_inline must be 8 or 32";
  let stride =
    if key_inline = 8 then 16 (* value 8 + key 8 *)
    else round_up (8 + 1 + key_inline) 8 (* value 8 + klen 1 + key bytes *)
  in
  { inline = key_inline; stride; node_size = off_kv + (entries * stride); persist_perm }

type t = Pobj.obj = { pool : Pool.t; off : int }

let of_ptr machine ptr = { pool = Pptr.resolve machine ptr; off = Pptr.off ptr }

let to_ptr t = Pptr.make ~pool:(Pool.id t.pool) ~off:t.off

let equal a b = Pool.id a.pool = Pool.id b.pool && a.off = b.off

(* The lock word is the node's first field, so the node is its own lock
   handle. *)
let () = assert (off_lock = 0)

let lock_handle t = t

let bitmap t = Pobj.get_i64 t f_bitmap

let set_bitmap t bm = Pobj.set_i64 t f_bitmap bm

let next t = Pobj.get_int t f_next

let set_next t p = Pobj.set_int t f_next p

let prev t = Pobj.get_int t f_prev

let set_prev t p = Pobj.set_int t f_prev p

let is_deleted t = Pobj.get_int t f_deleted <> 0

let set_deleted t flag = Pobj.set_int t f_deleted (Bool.to_int flag)

let anchor t =
  let len = Pobj.get_int t f_anchor_len in
  Pobj.read_string t off_anchor len

(* Allocation-free [compare (anchor t) k] for the node at [off] in
   [pool]. *)
let compare_anchor pool off k =
  let len = Pool.read_int pool (off + Layout.off f_anchor_len) in
  Pool.compare_string pool (off + off_anchor) len k

(* Allocation-free [compare (Key.to_radix (anchor t)) rkey], for a radix
   key [rkey].  Appending the same terminator to both sides does not
   change the order of two keys, so the anchor is compared with [rkey]
   less its terminator. *)
let compare_anchor_radix pool off rkey =
  let len = Pool.read_int pool (off + Layout.off f_anchor_len) in
  Pool.compare_prefix pool (off + off_anchor) len rkey (String.length rkey - 1)

let init lay t ~gen ~anchor ~next ~prev =
  Pobj.fill_zero t 0 lay.node_size;
  Vlock.init (lock_handle t) ~gen;
  Pobj.set_int t f_next next;
  Pobj.set_int t f_prev prev;
  Pobj.set_int t f_anchor_len (String.length anchor);
  Pobj.write_string t off_anchor anchor

(* Key-value slots.  Integer layout: value, 8-byte key.  String
   layout: value, length byte, key bytes. *)
let entry_off lay slot = off_kv + (slot * lay.stride)

let value_at lay t slot = Pobj.read_int t (entry_off lay slot)

let set_value lay t slot v = Pobj.write_int t (entry_off lay slot) v

let key_at lay t slot =
  let e = entry_off lay slot in
  if lay.inline = 8 then Pobj.read_string t (e + 8) 8
  else
    let len = Pobj.read_u8 t (e + 8) in
    Pobj.read_string t (e + 9) len

(* Allocation-free comparison of the slot key with [k]. *)
let compare_key_at lay t slot k =
  let e = entry_off lay slot in
  if lay.inline = 8 then Pobj.compare_string t (e + 8) 8 k
  else
    let len = Pobj.read_u8 t (e + 8) in
    Pobj.compare_string t (e + 9) len k

(* Write the pair of value [v] and the key of [len] bytes at [pos] in
   [buf] to [slot], with its fingerprint. *)
let write_entry lay t slot v buf pos len =
  let e = entry_off lay slot in
  Pobj.write_int t e v;
  if lay.inline = 8 then Pobj.blit_from_bytes t (e + 8) buf pos len
  else begin
    Pobj.write_u8 t (e + 8) len;
    Pobj.blit_from_bytes t (e + 9) buf pos len
  end;
  Pobj.write_u8 t (off_fingerprints + slot) (Fingerprint.of_bytes buf pos len)

let set_entry lay t slot key v =
  write_entry lay t slot v (Bytes.unsafe_of_string key) 0 (String.length key)

let bit slot = Int64.shift_left 1L slot

let test_bit bm slot = Int64.logand bm (bit slot) <> 0L

let live_count t =
  let bm = bitmap t in
  let rec go acc i =
    if i >= entries then acc else go (if test_bit bm i then acc + 1 else acc) (i + 1)
  in
  go 0 0

(* The first free slot from [i] on, or [-1] when there is none. *)
let rec first_empty_from bm i =
  if i >= entries then -1 else if test_bit bm i then first_empty_from bm (i + 1) else i

let first_empty bm = first_empty_from bm 0

(* ---------- read-only visits ---------- *)

(* A visit copies the node's lines 0-1 — lock word, bitmap, next/prev,
   deleted mark, anchor length and the fingerprint line — into the
   calling thread's scratch buffer with one read, and decodes them from
   the copy: a later access can miss the cache and let other threads
   run, and the visit goes on with what it read.  A probe copies each
   candidate entry (value and inline key) with one read to
   [snap_entry], past the copied lines, so the bitmap and fingerprints
   it is still scanning stay intact.  A visit addresses the node by its
   pool and offset and builds no record. *)
let snap_len = off_fingerprints + entries

let snap_entry = snap_len

let begin_read pool off ~gen =
  Vlock.begin_read_snapshot pool off ~gen (Des.Sched.scratch ()) 0 snap_len

(* The header fields alone (line 0), for a visit that probes no key. *)
let read_header pool off =
  Pool.blit_to_bytes pool off (Des.Sched.scratch ()) 0 (Layout.off f_anchor_len + 8)

let snap_int rel = Int64.to_int (Bytes.get_int64_le (Des.Sched.scratch ()) rel)

let snap_deleted () = snap_int off_deleted <> 0

let snap_next () = snap_int off_next

let snap_prev () = snap_int off_prev

let snap_compare_anchor pool off k =
  Pool.compare_string pool (off + off_anchor) (snap_int (Layout.off f_anchor_len)) k

(* Is [slot] set in the little-endian bitmap at [pos] in [buf]? *)
let live_in buf pos slot = Bytes.get_uint8 buf (pos + (slot lsr 3)) land (1 lsl (slot land 7)) <> 0

let snap_live snap slot = live_in snap (Layout.off f_bitmap) slot

let rec equal_from snap pos k len i =
  i >= len
  || Bytes.unsafe_get snap (pos + i) = String.unsafe_get k i && equal_from snap pos k len (i + 1)

(* Copy [slot]'s entry of the node at [off] in [pool] to [snap_entry]
   and compare its key with [k] there. *)
let entry_is lay pool off snap slot k =
  if lay.inline = 8 then begin
    Pool.blit_to_bytes pool (off + entry_off lay slot) snap snap_entry 16;
    String.length k = 8 && equal_from snap (snap_entry + 8) k 8 0
  end
  else begin
    Pool.blit_to_bytes pool (off + entry_off lay slot) snap snap_entry (9 + lay.inline);
    let len = Bytes.get_uint8 snap (snap_entry + 8) in
    len = String.length k && equal_from snap (snap_entry + 9) k len 0
  end

(* The first live slot from [slot] on that holds [k], among the slots
   whose fingerprint matched: bit [8i] of [m] stands for [slot + i]. *)
let rec probe_word lay pool off k snap slot m =
  if m = 0 then -1
  else if m land 1 <> 0 && snap_live snap slot && entry_is lay pool off snap slot k then slot
  else probe_word lay pool off k snap (slot + 1) (m lsr 8)

(* The bytes of fingerprint word [word] equal to [fp], as bit [8i] for
   byte [i].  A byte of [x] is zero iff adding 0x7F to its low seven
   bits leaves bit 7 clear and its own bit 7 is clear; no carry crosses
   a byte, so the mask is exact.  The int64s stay local, unboxed. *)
let[@inline] fingerprint_matches snap fp word =
  let low7 = 0x7F7F7F7F7F7F7F7FL in
  let w = Bytes.get_int64_le snap (off_fingerprints + (8 * word)) in
  let x = Int64.logxor w (Int64.mul (Int64.of_int fp) 0x0101010101010101L) in
  let zero =
    Int64.lognot (Int64.logor (Int64.logor (Int64.add (Int64.logand x low7) low7) x) low7)
  in
  Int64.to_int (Int64.shift_right_logical zero 7)

let rec probe_from lay pool off k snap fp word =
  if word >= entries / 8 then -1
  else
    let slot = probe_word lay pool off k snap (8 * word) (fingerprint_matches snap fp word) in
    if slot >= 0 then slot else probe_from lay pool off k snap fp (word + 1)

(* one fingerprint match over the copied line, eight bytes at a time
   (the AVX512 match of the paper, §5.2) *)
let probe lay pool off k = probe_from lay pool off k (Des.Sched.scratch ()) (Fingerprint.of_key k) 0

let find lay t k =
  let span = Obs.Span.start Obs.Span.Dnode_scan in
  match
    Pobj.blit_to_bytes t 0 (Des.Sched.scratch ()) 0 snap_len;
    probe lay t.pool t.off k
  with
  | slot ->
      Obs.Span.stop span;
      slot
  | exception e ->
      Obs.Span.stop span;
      raise e

let found_value () = snap_int snap_entry

let live_entries lay t =
  let bm = bitmap t in
  let rec go acc slot =
    if slot < 0 then acc
    else
      go (if test_bit bm slot then (key_at lay t slot, value_at lay t slot) :: acc else acc)
        (slot - 1)
  in
  go [] (entries - 1)

(* ---------- sorted order ---------- *)

(* A thread's copy of the entries a sort or an absorb read, laid out
   as in the node (entry [slot] at [slot * stride]) and followed by the
   node's bitmap, and a slot array to sort into.  A split reads the
   keys, then can miss the cache and let other threads run before it
   writes them to the new node, so the copy belongs to the thread:
   [copies] is indexed by thread id + 1 (the host program is -1). *)
type copy = { image : Bytes.t; slots : int array }

let copies = ref [||]

let max_stride = (layout ~key_inline:Key.max_len ()).stride

let copy_bitmap = entries * max_stride

let thread_copy () =
  let i = Des.Sched.current_id () + 1 in
  if i >= Array.length !copies then begin
    let grown = Array.make (max 8 (2 * i)) None in
    Array.blit !copies 0 grown 0 (Array.length !copies);
    copies := grown
  end;
  match Array.unsafe_get !copies i with
  | Some c -> c
  | None ->
      let c = { image = Bytes.create (copy_bitmap + 8); slots = Array.make entries 0 } in
      !copies.(i) <- Some c;
      c

(* Read the bitmap into the copy, as [bitmap] reads it but without
   boxing it. *)
let read_bitmap t image = Pobj.blit_to_bytes t (Layout.off f_bitmap) image copy_bitmap 8

let copied_live image slot = live_in image copy_bitmap slot

let copy_key lay slot = (slot * lay.stride) + if lay.inline = 8 then 8 else 9

let copy_key_len lay image slot =
  if lay.inline = 8 then 8 else Bytes.get_uint8 image ((slot * lay.stride) + 8)

(* Read [slot]'s key into the copy, as [key_at] reads it. *)
let read_key lay t image slot =
  let e = entry_off lay slot and c = slot * lay.stride in
  if lay.inline = 8 then Pobj.blit_to_bytes t (e + 8) image (c + 8) 8
  else begin
    let len = Pobj.read_u8 t (e + 8) in
    Bytes.set_uint8 image (c + 8) len;
    Pobj.blit_to_bytes t (e + 9) image (c + 9) len
  end

let rec compare_bytes a apos alen b bpos blen i =
  if i >= alen || i >= blen then compare alen blen
  else
    let c = Char.compare (Bytes.unsafe_get a (apos + i)) (Bytes.unsafe_get b (bpos + i)) in
    if c <> 0 then c else compare_bytes a apos alen b bpos blen (i + 1)

(* Eight bytes order lexicographically as their big-endian word orders
   unsigned, and flipping the sign bit makes that a signed order: one
   word compare instead of up to eight byte compares. *)
let[@inline] copied_word lay image slot =
  Int64.logxor (Bytes.get_int64_be image (copy_key lay slot)) Int64.min_int

let compare_copied lay image s1 s2 =
  if lay.inline = 8 then begin
    let a = copied_word lay image s1 and b = copied_word lay image s2 in
    if a < b then -1 else if a > b then 1 else 0
  end
  else
    compare_bytes image (copy_key lay s1) (copy_key_len lay image s1) image (copy_key lay s2)
      (copy_key_len lay image s2) 0

(* Insertion sort of [slots.(0 .. n-1)] by copied key; stable. *)
let sort_slots lay image slots n =
  for i = 1 to n - 1 do
    let s = slots.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && compare_copied lay image slots.(!j) s > 0 do
      slots.(!j + 1) <- slots.(!j);
      decr j
    done;
    slots.(!j + 1) <- s
  done

let sort_into lay t image slots =
  read_bitmap t image;
  let n = ref 0 in
  for slot = entries - 1 downto 0 do
    if copied_live image slot then begin
      read_key lay t image slot;
      incr n
    end
  done;
  let n = !n in
  let i = ref 0 in
  for slot = 0 to entries - 1 do
    if copied_live image slot then begin
      slots.(!i) <- slot;
      incr i
    end
  done;
  sort_slots lay image slots n;
  n

let sort_live lay t slots = sort_into lay t (thread_copy ()).image slots

let thread_slots () = (thread_copy ()).slots

let sorted_key lay slot =
  let image = (thread_copy ()).image in
  Bytes.sub_string image (copy_key lay slot) (copy_key_len lay image slot)

let compare_sorted_key lay slot k =
  let image = (thread_copy ()).image in
  let k = Bytes.unsafe_of_string k in
  compare_bytes image (copy_key lay slot) (copy_key_len lay image slot) k 0 (Bytes.length k) 0

let slot_mask slots ~pos ~len =
  let m = ref 0L in
  for i = pos to pos + len - 1 do
    m := Int64.logor !m (bit slots.(i))
  done;
  !m

type write_result = Ok | Full | Absent

(* The permutation array caches a node's sorted order for scans
   (§5.2), stamped with the lock word it is valid for: any write
   changes the word and so voids it.  Both are transient unless the
   persist_perm ablation flushes them. *)
let write_permutation t order n =
  Pobj.Sanitizer.with_suppressed @@ fun () ->
  for i = 0 to n - 1 do
    Pobj.write_u8 t (off_permutation + i) order.(i)
  done

let stamp_permutation lay t word =
  Pobj.set_int t f_perm_version word;
  if lay.persist_perm then begin
    Pobj.flush t off_permutation entries;
    Pobj.persist_field t f_perm_version
  end

(* The stamp while a reader writes the array: no lock word is
   negative, so no reader takes the array for fresh meanwhile. *)
let publishing = -1

let persist_slot lay t slot =
  Pobj.flush t (entry_off lay slot) lay.stride;
  Pobj.clwb t (off_fingerprints + slot);
  Pobj.fence t

let persist_bitmap t =
  Pobj.flush_field t f_bitmap;
  Pobj.fence t

(* The ablation's writer rebuilds and flushes the array under its
   lock, so the word it stamps cannot change under it. *)
let maybe_persist_perm lay t =
  if lay.persist_perm then begin
    let c = thread_copy () in
    let n = sort_into lay t c.image c.slots in
    write_permutation t c.slots n;
    stamp_permutation lay t (Pobj.get_int t f_lock)
  end

(* [f] inside a [Dnode_insert] span, without a closure per call. *)
let in_insert_span f lay t k v =
  let span = Obs.Span.start Obs.Span.Dnode_insert in
  match f lay t k v with
  | r ->
      Obs.Span.stop span;
      r
  | exception e ->
      Obs.Span.stop span;
      raise e

let insert_slot lay t k v =
  let bm = bitmap t in
  let slot = first_empty bm in
  if slot < 0 then Full
  else begin
    set_entry lay t slot k v;
    persist_slot lay t slot (* durability point for the pair *);
    set_bitmap t (Int64.logor bm (bit slot));
    persist_bitmap t (* linearization point, persisted *);
    maybe_persist_perm lay t;
    Ok
  end

let insert lay t k v = in_insert_span insert_slot lay t k v

let delete_slot lay t k () =
  let slot = find lay t k in
  if slot < 0 then Absent
  else begin
    set_bitmap t (Int64.logand (bitmap t) (Int64.lognot (bit slot)));
    persist_bitmap t;
    maybe_persist_perm lay t;
    Ok
  end

let delete lay t k = in_insert_span delete_slot lay t k ()

let update_slot lay t k v =
  let old_slot = find lay t k in
  if old_slot < 0 then Absent
  else begin
    let bm = bitmap t in
    let slot = first_empty bm in
    if slot >= 0 then begin
      (* Out-of-place: persist the new pair, then one atomic
         bitmap write retires the old slot and publishes the new. *)
      set_entry lay t slot k v;
      persist_slot lay t slot;
      set_bitmap t (Int64.logor (Int64.logand bm (Int64.lognot (bit old_slot))) (bit slot));
      persist_bitmap t;
      maybe_persist_perm lay t;
      Ok
    end
    else begin
      (* Node full: an 8-byte value store is itself atomic. *)
      set_value lay t old_slot v;
      Pobj.persist t (entry_off lay old_slot) 8;
      Ok
    end
  end

let update lay t k v = in_insert_span update_slot lay t k v

(* Emit the pairs of [t] in the order of the node's permutation array
   ([copy = None]) or of the thread's sorted copy, from the first key
   >= [k]. *)
let rec scan_order lay t k ~f copy i n =
  if i >= n then true
  else
    let slot =
      match copy with None -> Pobj.read_u8 t (off_permutation + i) | Some slots -> slots.(i)
    in
    if compare_key_at lay t slot k < 0 then scan_order lay t k ~f copy (i + 1) n
    else if f (key_at lay t slot) (value_at lay t slot) then scan_order lay t k ~f copy (i + 1) n
    else false

(* A stale array is rebuilt by the reader: it sorts the live keys, then
   publishes the order stamped with the lock word it read before the
   sort, so a write that lands during the sort leaves the stamp stale.
   Only the reader that claims the stamp, by a CAS from the stale value
   it read, writes the array; two readers that sorted at different
   versions would otherwise interleave their writes under a fresh
   stamp.  A reader that loses the claim scans from its own copy. *)
let scan_from lay t k ~f =
  Obs.Span.with_phase Obs.Span.Dnode_scan @@ fun () ->
  let word = Pobj.get_int t f_lock in
  let stamp = Pobj.get_int t f_perm_version in
  if stamp = word then scan_order lay t k ~f None 0 (live_count t)
  else begin
    let c = thread_copy () in
    let n = sort_into lay t c.image c.slots in
    if
      stamp <> publishing
      && Pobj.transient_cas t (Layout.off f_perm_version) ~expected:stamp publishing
    then begin
      write_permutation t c.slots n;
      stamp_permutation lay t word;
      scan_order lay t k ~f None 0 n
    end
    else scan_order lay t k ~f (Some c.slots) 0 n
  end

let low_bits n = if n >= entries then -1L else Int64.pred (Int64.shift_left 1L n)

let copy_slots lay ~src ~dst slots pos len =
  let image = (thread_copy ()).image in
  for i = 0 to len - 1 do
    let slot = slots.(pos + i) in
    let v = value_at lay src slot in
    write_entry lay dst i v image (copy_key lay slot) (copy_key_len lay image slot)
  done;
  set_bitmap dst (low_bits len)

let copy_into lay ~src ~dst slots ~pos ~len =
  let span = Obs.Span.start Obs.Span.Dnode_insert in
  match copy_slots lay ~src ~dst slots pos len with
  | () -> Obs.Span.stop span
  | exception e ->
      Obs.Span.stop span;
      raise e

let clear_slots t mask =
  set_bitmap t (Int64.logand (bitmap t) (Int64.lognot mask));
  persist_bitmap t

(* Read [slot]'s value and key into the copy, as [live_entries] reads
   them. *)
let read_entry lay t image slot =
  let v = value_at lay t slot in
  Bytes.set_int64_le image (slot * lay.stride) (Int64.of_int v);
  read_key lay t image slot

let absorb_slots lay src dst =
  let image = (thread_copy ()).image in
  read_bitmap src image;
  for slot = entries - 1 downto 0 do
    if copied_live image slot then read_entry lay src image slot
  done;
  let bm = ref (bitmap dst) in
  for slot = 0 to entries - 1 do
    if copied_live image slot then begin
      let d = first_empty !bm in
      if d < 0 then invalid_arg "Data_node.absorb: destination too full";
      let v = Int64.to_int (Bytes.get_int64_le image (slot * lay.stride)) in
      write_entry lay dst d v image (copy_key lay slot) (copy_key_len lay image slot);
      persist_slot lay dst d;
      bm := Int64.logor !bm (bit d)
    end
  done;
  set_bitmap dst !bm;
  persist_bitmap dst;
  maybe_persist_perm lay dst

let absorb lay ~src ~dst =
  let span = Obs.Span.start Obs.Span.Dnode_insert in
  match absorb_slots lay src dst with
  | () -> Obs.Span.stop span
  | exception e ->
      Obs.Span.stop span;
      raise e
