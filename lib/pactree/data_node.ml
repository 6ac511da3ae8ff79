module Pool = Nvm.Pool
module Pptr = Pmalloc.Pptr
module Layout = Pobj.Layout

(* Fixed node header (256 bytes); key-value slots follow at a stride
   chosen per tree instance (see [layout] below).  The lock word and
   the permutation cache (the array, its stamp and its count) are
   transient: the former is voided by the generation bump after a
   crash, the latter is rebuilt from the persistent slots (§5.2) —
   unless the persist_perm ablation flushes it explicitly.

   Line 0 holds the lock word, the links, the deleted mark, the
   permutation stamp and count and the fingerprints of slots
   [hi_fps, entries);
   line 1 holds the bitmap and the other fingerprints.  A clwb evicts
   the line it flushes (FH4), so the line that a write commits — the
   bitmap with the fingerprint of a slot below [hi_fps] — is not the
   lock's: a writer's release stores to a line still in the CPU
   cache. *)
let hdr = Layout.create "data_node.hdr"

let f_lock = Layout.word ~transient:true hdr "lock"

let f_next = Layout.word hdr "next"

let f_prev = Layout.word hdr "prev"

let f_deleted = Layout.word hdr "deleted"

let f_perm_version = Layout.word ~transient:true hdr "perm_version"

let f_perm_count = Layout.word ~transient:true hdr "perm_count"

let entries = 64

let hi_fps = 56

(* the last word of line 0 *)
let f_fingerprints_hi = Layout.bytes ~at:56 hdr "fingerprints_hi" (entries - hi_fps)

let f_bitmap = Layout.i64 ~at:64 hdr "bitmap"

let f_fingerprints = Layout.bytes hdr "fingerprints" hi_fps

let f_permutation = Layout.bytes ~at:128 ~transient:true hdr "permutation" 64

(* The anchor's length and bytes share line 3, so one read of the line
   compares or copies the anchor. *)
let f_anchor_len = Layout.word ~at:192 hdr "anchor_len"

let f_anchor = Layout.bytes ~at:200 hdr "anchor" 56

let off_kv = Layout.seal hdr

let off_lock = Layout.off f_lock

let off_next = Layout.off f_next

let off_prev = Layout.off f_prev

let off_deleted = Layout.off f_deleted

let off_fingerprints = Layout.off f_fingerprints

let off_fingerprints_hi = Layout.off f_fingerprints_hi

(* The offset of [slot]'s fingerprint byte: eight slots' fingerprints
   make one aligned probe word, the last of them in line 0. *)
let fp_off slot =
  if slot < hi_fps then off_fingerprints + slot else off_fingerprints_hi + slot - hi_fps

let off_permutation = Layout.off f_permutation

let off_anchor = Layout.off f_anchor

let off_perm_version = Layout.off f_perm_version

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

(* The lock word is the node's first field: a node's lock is at the
   node's own pool and offset. *)
let () = assert (off_lock = 0)

let bitmap t = Pobj.get_i64 t f_bitmap

let next t = Pobj.get_int t f_next

let set_next t p = Pobj.set_int t f_next p

let prev t = Pobj.get_int t f_prev

let set_prev t p = Pobj.set_int t f_prev p

let is_deleted t = Pobj.get_int t f_deleted <> 0

let set_deleted t flag = Pobj.set_int t f_deleted (Bool.to_int flag)

let rec compare_bytes a apos alen b bpos blen i =
  if i >= alen || i >= blen then compare alen blen
  else
    let c = Char.compare (Bytes.unsafe_get a (apos + i)) (Bytes.unsafe_get b (bpos + i)) in
    if c <> 0 then c else compare_bytes a apos alen b bpos blen (i + 1)

(* An anchor is read with one copy of its length and [Key.max_len]
   bytes, to the same offsets of the calling thread's scratch buffer:
   clear of a visit's copy and entry and of the trie's copies, so a
   visit or a trie descent compares an anchor and goes on with what it
   copied.  The copy returns the anchor's length. *)
let off_anchor_len = Layout.off f_anchor_len

let () = assert (Layout.field_size f_anchor >= Key.max_len)

let read_anchor pool off =
  let buf = Des.Sched.scratch () in
  Pool.blit_to_bytes pool (off + off_anchor_len) buf off_anchor_len
    (off_anchor - off_anchor_len + Key.max_len);
  let len = Int64.to_int (Bytes.get_int64_le buf off_anchor_len) in
  if len < 0 || len > Key.max_len then invalid_arg "Data_node: anchor length out of range";
  len

let anchor t =
  let len = read_anchor t.pool t.off in
  Bytes.sub_string (Des.Sched.scratch ()) off_anchor len

(* Allocation-free [compare (anchor t) k] for the node at [off] in
   [pool]. *)
let compare_anchor pool off k =
  let len = read_anchor pool off in
  compare_bytes (Des.Sched.scratch ()) off_anchor len (Bytes.unsafe_of_string k) 0
    (String.length k) 0

(* Key-value slots.  Integer layout: value, 8-byte key.  String
   layout: value, length byte, key bytes. *)
let entry_off lay slot = off_kv + (slot * lay.stride)

let value_at lay t slot = Pobj.read_int t (entry_off lay slot)

let key_at lay t slot =
  let e = entry_off lay slot in
  if lay.inline = 8 then Pobj.read_string t (e + 8) 8
  else
    let len = Pobj.read_u8 t (e + 8) in
    Pobj.read_string t (e + 9) len

let key_pos lay = if lay.inline = 8 then 8 else 9

(* Lay out the pair of value [v] and the key of [len] bytes at [pos] in
   [buf] at [e] in [dst], as an entry is laid out in a node. *)
let put_pair lay dst e v buf pos len =
  Bytes.set_int64_le dst e (Int64.of_int v);
  if lay.inline <> 8 then Bytes.set_uint8 dst (e + 8) len;
  Bytes.blit buf pos dst (e + key_pos lay) len

(* Allocation-free comparison of the slot key with [k]. *)
let compare_key_at lay t slot k =
  let e = entry_off lay slot in
  if lay.inline = 8 then Pobj.compare_string t (e + 8) 8 k
  else
    let len = Pobj.read_u8 t (e + 8) in
    Pobj.compare_string t (e + 9) len k

(* Is [slot] set in the little-endian bitmap at [pos] in [buf]? *)
let live_in buf pos slot = Bytes.get_uint8 buf (pos + (slot lsr 3)) land (1 lsl (slot land 7)) <> 0

(* The writers, [live_count] and [live_entries] read the bitmap into
   the calling thread's scratch buffer, at its place in a visit's copy
   of line 1, and a writer stores it back from there: an [int64]
   returned or passed across a call is boxed.  The read and the store
   make the accesses of [bitmap] and [set_bitmap]. *)
let bits = Layout.off f_bitmap

let read_bits pool off buf = Pool.blit_to_bytes pool (off + bits) buf bits 8

let write_bits pool off buf = Pool.blit_from_bytes pool (off + bits) buf bits 8

let set_live buf slot =
  let i = bits + (slot lsr 3) in
  Bytes.set_uint8 buf i (Bytes.get_uint8 buf i lor (1 lsl (slot land 7)))

let clear_live buf slot =
  let i = bits + (slot lsr 3) in
  Bytes.set_uint8 buf i (Bytes.get_uint8 buf i land lnot (1 lsl (slot land 7)))

(* The lowest clear bit of each byte value, 8 for 0xFF. *)
let lowest_clear =
  String.init 256 (fun b ->
      let rec go i = if i < 8 && b land (1 lsl i) <> 0 then go (i + 1) else i in
      Char.chr (go 0))

(* The first free slot of the bitmap in [buf] from byte [byte] on, or
   [-1] when there is none: a byte at a time. *)
let rec free_from buf byte =
  if byte >= entries / 8 then -1
  else
    let b = Bytes.get_uint8 buf (bits + byte) in
    if b = 0xFF then free_from buf (byte + 1)
    else (8 * byte) + Char.code (String.unsafe_get lowest_clear b)

let rec count_live buf acc i =
  if i >= entries then acc
  else count_live buf (if live_in buf bits i then acc + 1 else acc) (i + 1)

let live_count t =
  let buf = Des.Sched.scratch () in
  read_bits t.pool t.off buf;
  count_live buf 0 0

(* ---------- read-only visits ---------- *)

(* A visit copies the node's lines 0-1 — lock word, next/prev, deleted
   mark, permutation stamp, bitmap and fingerprints — into the calling
   thread's scratch buffer with one read, and decodes them from
   the copy: a later access can miss the cache and let other threads
   run, and the visit goes on with what it read.  A probe copies each
   candidate entry (value and inline key) with one read to
   [snap_entry], past the copied lines, so the bitmap and fingerprints
   it is still scanning stay intact.  A visit addresses the node by its
   pool and offset and builds no record. *)
let snap_len = off_fingerprints + hi_fps

let () = assert (snap_len = 128 && off_fingerprints_hi + entries - hi_fps = bits)

let snap_entry = snap_len

let () = assert (snap_entry + 9 + Key.max_len <= off_anchor_len)

let begin_read pool off ~gen =
  Vlock.begin_read_snapshot pool off ~gen (Des.Sched.scratch ()) 0 snap_len

(* Line 0 alone — the header fields and the last fingerprint word —
   for a visit that probes no key, or a writer that locks from it and
   then copies line 1 ([find_locked]). *)
let header_len = bits

let read_header pool off = Pool.blit_to_bytes pool off (Des.Sched.scratch ()) 0 header_len

let snap_int rel = Int64.to_int (Bytes.get_int64_le (Des.Sched.scratch ()) rel)

let snap_lock_word () = snap_int off_lock

let snap_deleted () = snap_int off_deleted <> 0

let snap_next () = snap_int off_next

let snap_prev () = snap_int off_prev

let snap_live snap slot = live_in snap bits slot

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
  let w = Bytes.get_int64_le snap (fp_off (8 * word)) in
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

(* one fingerprint match over the copied lines, eight bytes at a time
   (the AVX512 match of the paper, §5.2) *)
let probe lay pool off k = probe_from lay pool off k (Des.Sched.scratch ()) (Fingerprint.of_key k) 0

(* Copy bytes [from, snap_len) of the node's lines 0-1, then probe. *)
let find_from lay pool off k from =
  let span = Obs.Span.start Obs.Span.Dnode_scan in
  match
    Pool.blit_to_bytes pool (off + from) (Des.Sched.scratch ()) from (snap_len - from);
    probe lay pool off k
  with
  | slot ->
      Obs.Span.stop span;
      slot
  | exception e ->
      Obs.Span.stop span;
      raise e

let find lay pool off k = find_from lay pool off k 0

let find_locked lay pool off k = find_from lay pool off k header_len

let found_value () = snap_int snap_entry

let live_entries lay t =
  let buf = Des.Sched.scratch () in
  read_bits t.pool t.off buf;
  let rec go acc slot =
    if slot < 0 then acc
    else
      go (if live_in buf bits slot then (key_at lay t slot, value_at lay t slot) :: acc else acc)
        (slot - 1)
  in
  go [] (entries - 1)

(* ---------- sorted order ---------- *)

(* A thread's copy of the entries a sort or an absorb read, laid out
   as in the node's entry region (entry [slot] at [slot * stride]) and
   followed by the node's bitmap, then the image of a node the thread
   builds ([copy_out], laid out as a node), then the int layout's sort
   keys ([copy_keys], one word per slot; see [sort_slots]), and a slot
   array to sort into.  A split reads the entries, then can miss the
   cache and let other threads run before it writes them to the new
   node, so the copy belongs to the thread: [copies] is indexed by
   thread id + 1 (the host program is -1). *)
type copy = { image : Bytes.t; slots : int array }

let copies = ref [||]

let max_lay = layout ~key_inline:Key.max_len ()

let copy_bitmap = entries * max_lay.stride

let copy_out = copy_bitmap + 64

let copy_keys = copy_out + max_lay.node_size

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
      let c =
        { image = Bytes.make (copy_keys + (8 * entries)) '\000'; slots = Array.make entries 0 }
      in
      !copies.(i) <- Some c;
      c

(* Read the bitmap into the copy, as [bitmap] reads it but without
   boxing it. *)
let read_bitmap t image = Pobj.blit_to_bytes t (Layout.off f_bitmap) image copy_bitmap 8

let copied_live image slot = live_in image copy_bitmap slot

let copy_key lay slot = (slot * lay.stride) + key_pos lay

let copy_key_len lay image slot =
  if lay.inline = 8 then 8 else Bytes.get_uint8 image ((slot * lay.stride) + 8)

(* Is a slot of [first, last] live in the copy's bitmap?  The int64s
   stay local, unboxed. *)
let live_between image first last =
  first <= last
  &&
  let span = last - first + 1 in
  let mask = if span >= entries then -1L else Int64.pred (Int64.shift_left 1L span) in
  Int64.logand (Int64.shift_right_logical (Bytes.get_int64_le image copy_bitmap) first) mask
  <> 0L

(* Does line [line] of the entry region hold part of a live entry? *)
let line_live lay image line =
  live_between image (line * 64 / lay.stride)
    (Int.min (entries - 1) (((line * 64) + 63) / lay.stride))

(* Copy the entry region's lines that hold a live entry (value and key
   together) into the copy, in ascending order, each with one read: a
   run of such lines, from [run], is one read.  The region starts on a
   line and both strides tile it with whole lines.  The lines are read
   in windows of at most [Nvm.Config.fill_buffers] live lines: a
   window's runs are prefetched, so that its XPLines are fetched at
   once, and then read, before the next window is prefetched. *)
let region_lines lay = entries * lay.stride / 64

let read_run t image run line =
  if run >= 0 then Pobj.blit_to_bytes t (off_kv + (run * 64)) image (run * 64) ((line - run) * 64)

let prefetch_run t run line =
  if run >= 0 then Pool.prefetch t.pool (t.off + off_kv + (run * 64)) ((line - run) * 64)

(* Prefetch the runs of live lines from [line] on, up to the
   [Nvm.Config.fill_buffers]-th live line ([n] so far, the current run
   from [run]); the window's end. *)
let rec prefetch_window lay t image line run n =
  if line >= region_lines lay || n = Nvm.Config.fill_buffers then begin
    prefetch_run t run line;
    line
  end
  else if line_live lay image line then
    prefetch_window lay t image (line + 1) (if run >= 0 then run else line) (n + 1)
  else begin
    prefetch_run t run line;
    prefetch_window lay t image (line + 1) (-1) n
  end

let rec read_lines_from lay t image line run upto =
  if line >= upto then read_run t image run line
  else if line_live lay image line then
    read_lines_from lay t image (line + 1) (if run >= 0 then run else line) upto
  else begin
    read_run t image run line;
    read_lines_from lay t image (line + 1) (-1) upto
  end

let rec read_windows lay t image line =
  if line < region_lines lay then begin
    let upto = prefetch_window lay t image line (-1) 0 in
    read_lines_from lay t image line (-1) upto;
    read_windows lay t image upto
  end

let read_live_lines lay t image = read_windows lay t image 0

(* The copied string-layout keys of slots [s1] and [s2], compared. *)
let compare_copied lay image s1 s2 =
  compare_bytes image (copy_key lay s1) (copy_key_len lay image s1) image (copy_key lay s2)
    (copy_key_len lay image s2) 0

(* Eight bytes order lexicographically as their big-endian word orders
   unsigned, and flipping the sign bit makes that a signed order.
   Halved (arithmetically, so the order is kept), an int-layout key's
   word fits an int, and two keys with the same half differ in the low
   bit of their last byte. *)
let[@inline] copied_half lay image slot =
  let w = Int64.logxor (Bytes.get_int64_be image (copy_key lay slot)) Int64.min_int in
  Int64.to_int (Int64.shift_right w 1)

let[@inline] copied_low_bit lay image slot = Bytes.get_uint8 image (copy_key lay slot + 7) land 1

(* Sort key [i] of the int layout, at [copy_keys] in the copy: in the
   copy's bytes rather than an array of its own, so that a thread's
   copy is one block past the minor heap and costs no minor words.
   [sort_int_slots] checks [i] below [entries] once. *)
let[@inline] sort_key image i = Int64.to_int (Nvm.Words.unsafe_get64 image (copy_keys + (8 * i)))

let[@inline] set_sort_key image i k =
  Nvm.Words.unsafe_set64 image (copy_keys + (8 * i)) (Int64.of_int k)

(* [slots.(0 .. n-1)] sorted by copied key, stably.  The int layout
   takes each key's half as its sort key once and insertion-sorts the
   slots by it (the low bit breaks ties), moving ints only; its inner
   loop indexes below [n], checked once.  The string layout
   insertion-sorts the slots by their copied keys' bytes. *)
let sort_int_slots lay image slots n =
  if n > Array.length slots || n > entries then invalid_arg "Data_node.sort_slots";
  for i = 0 to n - 1 do
    set_sort_key image i (copied_half lay image slots.(i))
  done;
  for i = 1 to n - 1 do
    let s = slots.(i) and k = sort_key image i in
    let j = ref (i - 1) in
    while
      !j >= 0
      &&
      let kj = sort_key image !j in
      kj > k
      || kj = k
         && copied_low_bit lay image (Array.unsafe_get slots !j) > copied_low_bit lay image s
    do
      Array.unsafe_set slots (!j + 1) (Array.unsafe_get slots !j);
      set_sort_key image (!j + 1) (sort_key image !j);
      decr j
    done;
    slots.(!j + 1) <- s;
    set_sort_key image (!j + 1) k
  done

let sort_slots lay image slots n =
  if lay.inline = 8 then sort_int_slots lay image slots n
  else
    for i = 1 to n - 1 do
      let s = slots.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && compare_copied lay image slots.(!j) s > 0 do
        slots.(!j + 1) <- slots.(!j);
        decr j
      done;
      slots.(!j + 1) <- s
    done

(* Sort the live slots of [t] by the bitmap already in the copy. *)
let sort_copied lay t image slots =
  read_live_lines lay t image;
  let n = ref 0 in
  for slot = 0 to entries - 1 do
    if copied_live image slot then begin
      slots.(!n) <- slot;
      incr n
    end
  done;
  sort_slots lay image slots !n;
  !n

let sort_into lay t image slots =
  read_bitmap t image;
  sort_copied lay t image slots

let sort_live lay t slots = sort_into lay t (thread_copy ()).image slots

let sort_locked lay t slots =
  let image = (thread_copy ()).image in
  Bytes.blit (Des.Sched.scratch ()) bits image copy_bitmap 8;
  sort_copied lay t image slots

let thread_slots () = (thread_copy ()).slots

let sorted_key lay slot =
  let image = (thread_copy ()).image in
  Bytes.sub_string image (copy_key lay slot) (copy_key_len lay image slot)

let compare_sorted_key lay slot k =
  let image = (thread_copy ()).image in
  let k = Bytes.unsafe_of_string k in
  compare_bytes image (copy_key lay slot) (copy_key_len lay image slot) k 0 (Bytes.length k) 0

type write_result = Ok | Full | Absent

(* The permutation array caches a node's sorted order for scans
   (§5.2), stamped with the lock word it is valid for: any write
   changes the word and so voids it.  The count of the pairs it orders
   is stored before the stamp, in line 0 with it, so a scan over a
   fresh array reads no bitmap.  All three are transient unless the
   persist_perm ablation flushes them. *)
let write_permutation t order n =
  Pobj.Sanitizer.with_suppressed @@ fun () ->
  for i = 0 to n - 1 do
    Pobj.write_u8 t (off_permutation + i) order.(i)
  done

let stamp_permutation lay t word n =
  Pobj.set_int t f_perm_count n;
  Pobj.set_int t f_perm_version word;
  if lay.persist_perm then begin
    Pobj.flush t off_permutation entries;
    Pobj.persist_field t f_perm_version
  end

(* The stamp while a reader writes the array: no lock word is
   negative, so no reader takes the array for fresh meanwhile. *)
let publishing = -1

let write_fp pool off slot k = Pool.write_u8 pool (off + fp_off slot) (Fingerprint.of_key k)

(* Persist the pair of value [v] and key [k] in [slot] of the node at
   [off] in [pool] and store its fingerprint.  The pair is stored with
   one non-temporal store from [snap_entry], which stages its lines for
   the fence: the writer never reads the line it overwrites.  A
   fingerprint in line 0 is stored first and persisted with the entry;
   one in line 1 is stored after the entry's fence, for [commit] to
   persist with the bitmap.  A store to a line persists no earlier than
   the stores before it to that line, so the bitmap never persists
   without the fingerprint, and line 0, the lock's, is flushed only for
   a slot from [hi_fps] on.  The writers address a node by its pool and
   offset, as a visit does, and build no record. *)
let persist_slot lay pool off slot k v =
  if slot >= hi_fps then write_fp pool off slot k;
  let buf = Des.Sched.scratch () and len = String.length k in
  put_pair lay buf snap_entry v (Bytes.unsafe_of_string k) 0 len;
  Pool.ntstore pool (off + entry_off lay slot) buf snap_entry (key_pos lay + len);
  if slot >= hi_fps then Pool.clwb pool (off + off_fingerprints_hi);
  Pool.fence pool;
  if slot < hi_fps then write_fp pool off slot k

(* Store the bitmap in the scratch buffer and persist line 1: the
   linearization point of a write.  The clwb evicts line 1 (FH4), and
   the node's next reader or writer copies it first thing: prefetch it
   back as soon as the fence returns.  The entry line is not: the next
   writer stores into a free slot with a non-temporal store, and a
   reader reads one entry at most. *)
let commit pool off buf =
  write_bits pool off buf;
  Pool.clwb pool (off + bits);
  Pool.fence pool;
  Pool.prefetch pool (off + bits) 1

(* The ablation's writer rebuilds and flushes the array under its
   lock, so the word it stamps cannot change under it. *)
let maybe_persist_perm lay pool off =
  if lay.persist_perm then begin
    let t = { pool; off } in
    let c = thread_copy () in
    let n = sort_into lay t c.image c.slots in
    write_permutation t c.slots n;
    stamp_permutation lay t (Pobj.get_int t f_lock) n
  end

(* [f] inside a [Dnode_insert] span, without a closure per call. *)
let in_insert_span f lay pool off k v =
  let span = Obs.Span.start Obs.Span.Dnode_insert in
  match f lay pool off k v with
  | r ->
      Obs.Span.stop span;
      r
  | exception e ->
      Obs.Span.stop span;
      raise e

(* The bitmap is the one in the scratch buffer: [insert] reads it
   there, [insert_missed] takes it from the copy a [find] left. *)
let insert_slot lay pool off k v =
  let buf = Des.Sched.scratch () in
  let slot = free_from buf 0 in
  if slot < 0 then Full
  else begin
    persist_slot lay pool off slot k v (* durability point for the pair *);
    set_live buf slot;
    commit pool off buf;
    maybe_persist_perm lay pool off;
    Ok
  end

let insert_missed lay pool off k v = in_insert_span insert_slot lay pool off k v

let insert lay pool off k v =
  read_bits pool off (Des.Sched.scratch ());
  insert_missed lay pool off k v

(* The [_found] writers change the bitmap in the copy of lines 0-1 that
   the [find] of their slot took under the lock. *)
let delete_slot lay pool off slot () =
  let buf = Des.Sched.scratch () in
  clear_live buf slot;
  commit pool off buf;
  maybe_persist_perm lay pool off

let delete_found lay pool off slot = in_insert_span delete_slot lay pool off slot ()

let delete lay pool off k =
  let slot = find lay pool off k in
  if slot < 0 then Absent
  else begin
    delete_found lay pool off slot;
    Ok
  end

let update_slot lay pool off old_slot k v =
  let buf = Des.Sched.scratch () in
  let slot = free_from buf 0 in
  if slot >= 0 then begin
    (* Out-of-place: persist the new pair, then one atomic bitmap
       write retires the old slot and publishes the new. *)
    persist_slot lay pool off slot k v;
    clear_live buf old_slot;
    set_live buf slot;
    commit pool off buf;
    maybe_persist_perm lay pool off
  end
  else begin
    (* Node full: an 8-byte value store is itself atomic. *)
    let e = off + entry_off lay old_slot in
    Pool.write_int pool e v;
    Pool.persist pool e 8
  end

let update_found lay pool off slot k v =
  let span = Obs.Span.start Obs.Span.Dnode_insert in
  match update_slot lay pool off slot k v with
  | () -> Obs.Span.stop span
  | exception e ->
      Obs.Span.stop span;
      raise e

let update lay pool off k v =
  let slot = find lay pool off k in
  if slot < 0 then Absent
  else begin
    update_found lay pool off slot k v;
    Ok
  end

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
   stamp.  A reader that loses the claim scans from its own copy.  A
   scan over a fresh array reads the pairs' count beside its stamp, so
   it reads line 0, the array and the entries, never the bitmap.  A
   stamp is trusted only in the generation that stored it: the stamp
   and the lock word share line 0 and reach the media together, but
   the array does not, so after a crash they can match over an array
   that was never persisted. *)
let scan_from lay t ~gen k ~f =
  Obs.Span.with_phase Obs.Span.Dnode_scan @@ fun () ->
  let word = Pobj.get_int t f_lock in
  let stamp = Pobj.get_int t f_perm_version in
  if stamp = word && Vlock.is_current word ~gen then
    scan_order lay t k ~f None 0 (Pobj.get_int t f_perm_count)
  else begin
    let c = thread_copy () in
    let n = sort_into lay t c.image c.slots in
    if
      stamp <> publishing
      && Pobj.transient_cas t off_perm_version ~expected:stamp publishing
    then begin
      write_permutation t c.slots n;
      stamp_permutation lay t word n;
      scan_order lay t k ~f None 0 n
    end
    else scan_order lay t k ~f (Some c.slots) 0 n
  end

let low_bits n = if n >= entries then -1L else Int64.pred (Int64.shift_left 1L n)

(* ---------- fresh nodes ---------- *)

(* Set entry [i] of the node image at [copy_out] to value [v] and the
   key of [len] bytes at [pos] in [buf], with its fingerprint. *)
let out_entry lay image i v buf pos len =
  put_pair lay image (copy_out + off_kv + (i * lay.stride)) v buf pos len;
  Bytes.set_uint8 image (copy_out + fp_off i) (Fingerprint.of_bytes buf pos len)

(* Write a fresh node at [t] from the image at [copy_out], whose first
   [n] entries and fingerprints are set: lines 0-1 (lock word, links,
   deleted mark, permutation stamp and count, the bitmap of slots
   [0, n), the fingerprints, the rest zeroed), the anchor's length and
   bytes and the entries, each with one non-temporal store, and clwb
   the permutation line between them, unwritten, so that the header's
   XPLine is written whole.  No line is read or brought into the CPU
   cache: the entries past [n] and the permutation array are not live
   (the stamp 0 matches no lock word, whose generation is >= 1).  The
   fingerprints past [n] are zeroed, so the bytes stored depend on the
   node's pairs alone: the flush tracking compares whole lines. *)
let write_fresh lay t image ~gen ~anchor ~next ~prev n =
  let o = copy_out in
  let set rel v = Bytes.set_int64_le image (o + rel) (Int64.of_int v) in
  set off_lock (Vlock.fresh ~gen);
  set off_next next;
  set off_prev prev;
  set off_deleted 0;
  set off_perm_version 0;
  Bytes.fill image (o + off_perm_version + 8) (off_fingerprints_hi - off_perm_version - 8) '\000';
  Bytes.set_int64_le image (o + bits) (low_bits n);
  for i = n to entries - 1 do
    Bytes.set_uint8 image (o + fp_off i) 0
  done;
  set off_anchor_len (String.length anchor);
  Bytes.blit_string anchor 0 image (o + off_anchor) (String.length anchor);
  Pobj.ntstore t 0 image o snap_len;
  Pobj.clwb t off_permutation;
  Pobj.ntstore t off_anchor_len image (o + off_anchor_len)
    (off_anchor - off_anchor_len + String.length anchor);
  Pobj.ntstore t off_kv image (o + off_kv) (n * lay.stride)

let init lay t ~gen ~anchor ~next ~prev =
  write_fresh lay t (thread_copy ()).image ~gen ~anchor ~next ~prev 0

let init_moved lay t ~gen ~anchor ~next ~prev ?pending slots ~pos ~len =
  let span = Obs.Span.start Obs.Span.Dnode_insert in
  match
    let image = (thread_copy ()).image in
    for i = 0 to len - 1 do
      let slot = slots.(pos + i) in
      let v = Int64.to_int (Bytes.get_int64_le image (slot * lay.stride)) in
      out_entry lay image i v image (copy_key lay slot) (copy_key_len lay image slot)
    done;
    let n =
      match pending with
      | None -> len
      | Some (k, v) ->
          out_entry lay image len v (Bytes.unsafe_of_string k) 0 (String.length k);
          len + 1
    in
    write_fresh lay t image ~gen ~anchor ~next ~prev n
  with
  | () -> Obs.Span.stop span
  | exception e ->
      Obs.Span.stop span;
      raise e

(* The bitmap of the thread's last sort of [t] without the moved
   slots, set in the scratch buffer, stored from there and flushed. *)
let clear_moved t slots ~pos ~len =
  let buf = Des.Sched.scratch () in
  Bytes.blit (thread_copy ()).image copy_bitmap buf bits 8;
  for i = pos to pos + len - 1 do
    clear_live buf slots.(i)
  done;
  write_bits t.pool t.off buf;
  Pobj.flush t bits 8

(* ---------- merge ---------- *)

(* The bytes of the pair at [e] of the node image at [copy_out]. *)
let out_pair_len lay image e =
  key_pos lay + if lay.inline = 8 then 8 else Bytes.get_uint8 image (copy_out + e + 8)

(* The last index from [i] on of the run of consecutive slots that
   starts at [slots.(i)], among the first [n]. *)
let rec run_end slots n i =
  if i + 1 < n && slots.(i + 1) = slots.(i) + 1 then run_end slots n (i + 1) else i

(* Copy [src]'s live entries into free slots of [dst], whose lines 0-1
   are copied to the scratch buffer: lay each entry out at its
   destination in the copy's node image, with its fingerprint in the
   scratch copy of lines 0-1; then store each run of consecutive
   destination slots with one non-temporal store (a line two runs share
   is staged by each), with line 0's fingerprint word stored and
   flushed if a destination slot is from [hi_fps] on, fence once, and
   store line 1's fingerprints, then the bitmap, and persist the line
   (as an insert's [persist_slot] and [commit] do).  The padding of an
   entry is zeroed, so the bytes stored depend on the pairs alone.  The
   destination slots are noted in the copy's slot array. *)
let absorb_slots lay src dst =
  let c = thread_copy () in
  let image = c.image in
  read_bitmap src image;
  read_live_lines lay src image;
  let buf = Des.Sched.scratch () in
  Pobj.blit_to_bytes dst 0 buf 0 snap_len;
  let n = ref 0 in
  for slot = 0 to entries - 1 do
    if copied_live image slot then begin
      let d = free_from buf 0 in
      if d < 0 then invalid_arg "Data_node.absorb: destination too full";
      let len = copy_key_len lay image slot and e = copy_out + entry_off lay d in
      Bytes.blit image (slot * lay.stride) image e (key_pos lay + len);
      Bytes.fill image (e + key_pos lay + len) (lay.stride - key_pos lay - len) '\000';
      Bytes.set_uint8 buf (fp_off d) (Fingerprint.of_bytes image (copy_key lay slot) len);
      set_live buf d;
      c.slots.(!n) <- d;
      incr n
    end
  done;
  if !n > 0 then begin
    let i = ref 0 in
    while !i < !n do
      let j = run_end c.slots !n !i in
      let first = entry_off lay c.slots.(!i) and last = entry_off lay c.slots.(j) in
      Pobj.ntstore dst first image (copy_out + first) (last - first + out_pair_len lay image last);
      i := j + 1
    done;
    if c.slots.(!n - 1) >= hi_fps then begin
      Pobj.blit_from_bytes dst off_fingerprints_hi buf off_fingerprints_hi (entries - hi_fps);
      Pobj.clwb dst off_fingerprints_hi
    end;
    Pobj.fence dst;
    Pobj.blit_from_bytes dst off_fingerprints buf off_fingerprints hi_fps;
    commit dst.pool dst.off buf;
    maybe_persist_perm lay dst.pool dst.off
  end

let absorb lay ~src ~dst =
  let span = Obs.Span.start Obs.Span.Dnode_insert in
  match absorb_slots lay src dst with
  | () -> Obs.Span.stop span
  | exception e ->
      Obs.Span.stop span;
      raise e
