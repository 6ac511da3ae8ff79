let line_size = 64

let max_capacity = 1 lsl 40

(* The image a pool starts from (or its whole capacity, if smaller),
   and so the smallest growth step.  At 128 KB each of the four arrays
   (the smallest, the dirty map, is 2 KB) is past the minor heap's
   largest block: no growth allocates a minor word. *)
let min_image = 1 lsl 17

(* The four images cover the same prefix [0, Bytes.length cache) of
   the capacity, which only ever grows; everything past it is zero
   and clean. *)
type t = {
  id : int;
  name : string;
  machine : Machine.t;
  dev : Device.t;
  numa : int;
  volatile : bool;
  mutable cache : Bytes.t;
  mutable media : Bytes.t; (* empty for volatile pools *)
  mutable dirty : Bytes.t; (* one byte per 64B line, 1 if dirty *)
  mutable staged_by : int array;
      (* line -> thread that staged it with no store since ([nobody]
         if none); that thread's pending fence will persist the current
         content, so its own re-flushes of the line are redundant
         (FliT) *)
  capacity : int;
  sink : Machine.sink; (* where this pool's clwb snapshots are staged *)
  io : Device.cursor; (* request / completion time of a device access *)
}

let nobody = min_int

let round_up x align = (x + align - 1) / align * align

let check_range t off len =
  if not (off >= 0 && len >= 0 && off + len <= t.capacity) then
    invalid_arg
      (Printf.sprintf "Pool %s: access [%d, %d) outside capacity %d" t.name off
         (off + len) t.capacity)

(* [b] zero-extended to [len] bytes ([Bytes.extend] allocates a
   tuple on the minor heap). *)
let extend b len =
  let old = Bytes.length b in
  let b' = Bytes.create len in
  Bytes.blit b 0 b' 0 old;
  Bytes.fill b' old (len - old) '\000';
  b'

(* Grow the images to cover [0, upto) (within the capacity), at least
   doubling them: a pool that fills from the bottom reallocates a
   logarithmic number of times. *)
let grow t upto =
  let size = Bytes.length t.cache in
  if upto > size then begin
    let len = min t.capacity (max (round_up upto line_size) (2 * size)) in
    let lines = len / line_size in
    t.cache <- extend t.cache len;
    t.dirty <- extend t.dirty lines;
    if not t.volatile then begin
      t.media <- extend t.media len;
      let staged_by = Array.make lines nobody in
      Array.blit t.staged_by 0 staged_by 0 (Array.length t.staged_by);
      t.staged_by <- staged_by
    end
  end

(* True when [off] lies wholly past the image: such a read sees zeros. *)
let past t off = off >= Bytes.length t.cache

let clear_dirty t line = Bytes.set t.dirty line '\000'

(* Word [i] of the line at [base] is the same in [cache] and [media].
   The images are whole lines long, so every word is in bounds. *)
let[@inline] word_equal cache media base i =
  let off = base + (8 * i) in
  (Bytes.get_int64_ne cache off : int64) = Bytes.get_int64_ne media off

let lines_equal t line =
  let base = line * line_size and cache = t.cache and media = t.media in
  word_equal cache media base 0
  && word_equal cache media base 1
  && word_equal cache media base 2
  && word_equal cache media base 3
  && word_equal cache media base 4
  && word_equal cache media base 5
  && word_equal cache media base 6
  && word_equal cache media base 7

(* A fence persists a staged snapshot: the line is clean again unless
   it was stored to after the clwb. *)
let apply_snapshot t snaps pos line =
  Bytes.blit snaps pos t.media (line * line_size) line_size;
  if lines_equal t line then clear_dirty t line

type Machine.pool += Pool of t

let clear_tracking t =
  Array.fill t.staged_by 0 (Array.length t.staged_by) nobody;
  Bytes.fill t.dirty 0 (Bytes.length t.dirty) '\000'

let restore t img =
  if t.volatile then Bytes.fill t.cache 0 (Bytes.length t.cache) '\000'
  else begin
    let n = Bytes.length img in
    if n > t.capacity then
      invalid_arg
        (Printf.sprintf "Pool %s: restore image %d bytes, capacity %d" t.name n
           t.capacity);
    grow t n;
    let load b =
      Bytes.blit img 0 b 0 n;
      Bytes.fill b n (Bytes.length b - n) '\000'
    in
    load t.media;
    load t.cache
  end;
  clear_tracking t

let create machine ?(volatile = false) ~name ~numa ~capacity () =
  let capacity = round_up (max capacity 256) 256 in
  let size = min capacity min_image in
  let lines = size / line_size in
  let id = Machine.pool_count machine in
  let dev = Machine.device machine numa in
  let rec pool =
    {
      id;
      name;
      machine;
      dev;
      numa;
      volatile;
      cache = Bytes.make size '\000';
      media = (if volatile then Bytes.empty else Bytes.make size '\000');
      dirty = Bytes.make lines '\000';
      staged_by = Array.make (if volatile then 0 else lines) nobody;
      capacity;
      sink = { Machine.dev; apply = (fun snaps pos line -> apply_snapshot pool snaps pos line) };
      io = { Device.start = 0.0; at = 0.0 };
    }
  in
  Machine.add_pool machine (Pool pool);
  let on_crash mode =
    let size = Bytes.length pool.cache in
    if volatile then Bytes.fill pool.cache 0 size '\000'
    else begin
      (match mode with
      | Machine.Strict -> ()
      | Machine.Flaky (p, rng) ->
          (* Un-fenced dirty lines may have been evicted to the media
             by the cache at any point: persist each with prob. p. *)
          for line = 0 to (size / line_size) - 1 do
            if Bytes.get pool.dirty line <> '\000' && Des.Rng.float rng < p then
              Bytes.blit pool.cache (line * line_size) pool.media (line * line_size)
                line_size
          done);
      Bytes.blit pool.media 0 pool.cache 0 size
    end;
    clear_tracking pool
  in
  Machine.on_crash machine on_crash;
  pool

let of_id machine id =
  match Machine.pool machine id with
  | Pool p -> p
  | _ -> invalid_arg (Printf.sprintf "Pool.of_id: no pool %d" id)

let all machine = List.init (Machine.pool_count machine) (of_id machine)

let media_image t = Bytes.copy t.media

let resident_bytes t =
  Bytes.length t.cache + Bytes.length t.media + Bytes.length t.dirty
  + (Array.length t.staged_by * (Sys.word_size / 8))

let id t = t.id

let name t = t.name

let numa t = t.numa

let capacity t = t.capacity

let is_volatile t = t.volatile

let machine t = t.machine

(* Global line / XPLine ids: pool id in the high bits keeps pools
   disjoint while keeping in-pool adjacency (for the prefetcher). *)
let gline t off = (t.id lsl 40) lor (off lsr 6)

let cache_slot t off = Machine.cache_slot t.machine (gline t off)

let mark_dirty t off = Bytes.set t.dirty (off lsr 6) '\001'

let line_dirty t line = Bytes.get t.dirty line <> '\000'

(* Charge the cost of touching the line containing [off].  Writes take
   the same miss path as reads (read-for-ownership). *)
let touch_line t off =
  let g = gline t off in
  if Machine.cache_access t.machine g then Des.Sched.charge Config.cache_hit_cost
  else if t.volatile then Des.Sched.charge Config.dram_latency
  else if Des.Sched.running () then begin
    Des.Sched.stamp t.io;
    Device.read t.dev t.io ~xpline:(g lsr 2) ~from_numa:(Des.Sched.current_numa ());
    Des.Sched.delay_interval t.io
  end
  else begin
    t.io.at <- 0.0;
    Device.read t.dev t.io ~xpline:(g lsr 2) ~from_numa:t.numa
  end

(* Logical (program-requested) byte accounting feeds the FH1/FH2
   amplification rates: media traffic over logical traffic.  Volatile
   pools are excluded — amplification is an NVM phenomenon. *)
let touch_range_k t off len ~write =
  let inside = off >= 0 && len >= 0 && off + len <= Bytes.length t.cache in
  if not inside then check_range t off len;
  if (not t.volatile) && len > 0 then begin
    let s = Machine.stats t.machine in
    if write then s.Stats.logical_write_bytes <- s.Stats.logical_write_bytes + len
    else s.Stats.logical_read_bytes <- s.Stats.logical_read_bytes + len
  end;
  let first = off lsr 6 and last = (off + len - 1) lsr 6 in
  for line = first to last do
    touch_line t (line lsl 6)
  done;
  (* A miss yields, and another thread may grow the image meanwhile:
     decide after the touch.  A read wholly past the image grows
     nothing; it sees zeros. *)
  if (not inside) && (write || not (past t off)) then grow t (off + len)

let touch_range t off len = touch_range_k t off len ~write:false

let touch_range_write t off len =
  touch_range_k t off len ~write:true;
  let first = off lsr 6 and last = (off + len - 1) lsr 6 in
  for line = first to last do
    mark_dirty t (line lsl 6);
    (* A (possible) store invalidates the staged-snapshot elision. *)
    if not t.volatile then t.staged_by.(line) <- nobody
  done

(* Report a store to every line under [off, off+len) to the machine's
   persist-event subscribers (the crashmc trace, the pobj sanitizer). *)
let record_store t off len =
  if Machine.observed t.machine && (not t.volatile) && len > 0 then begin
    let tid = Des.Sched.current_id () in
    let first = off lsr 6 and last = (off + len - 1) lsr 6 in
    for line = first to last do
      Machine.emit t.machine (Machine.Store { tid; pool = t.id; line })
    done
  end

let read_u8 t off =
  touch_range t off 1;
  if past t off then 0 else Bytes.get_uint8 t.cache off

let write_u8 t off v =
  touch_range_write t off 1;
  Bytes.set_uint8 t.cache off v;
  record_store t off 1

let read_u16 t off =
  touch_range t off 2;
  if past t off then 0 else Bytes.get_uint16_le t.cache off

let write_u16 t off v =
  touch_range_write t off 2;
  Bytes.set_uint16_le t.cache off v;
  record_store t off 2

let read_u32 t off =
  touch_range t off 4;
  if past t off then 0 else Int32.to_int (Bytes.get_int32_le t.cache off) land 0xFFFFFFFF

let write_u32 t off v =
  touch_range_write t off 4;
  Bytes.set_int32_le t.cache off (Int32.of_int v);
  record_store t off 4

let read_int64 t off =
  if off land 7 <> 0 then
    invalid_arg (Printf.sprintf "Pool %s: unaligned 8B read at %d" t.name off);
  touch_range t off 8;
  if past t off then 0L else Bytes.get_int64_le t.cache off

let write_int64 t off v =
  if off land 7 <> 0 then
    invalid_arg (Printf.sprintf "Pool %s: unaligned 8B write at %d" t.name off);
  touch_range_write t off 8;
  Bytes.set_int64_le t.cache off v;
  record_store t off 8

(* [read_int]/[write_int] repeat the [Int64] accessors' checks rather
   than call them: an [int64] returned across a call is boxed, and these
   are the most frequent accesses of all. *)
let read_int t off =
  if off land 7 <> 0 then
    invalid_arg (Printf.sprintf "Pool %s: unaligned 8B read at %d" t.name off);
  touch_range t off 8;
  if past t off then 0 else Int64.to_int (Bytes.get_int64_le t.cache off)

let write_int_k t off v ~record =
  if off land 7 <> 0 then
    invalid_arg (Printf.sprintf "Pool %s: unaligned 8B write at %d" t.name off);
  touch_range_write t off 8;
  Bytes.set_int64_le t.cache off (Int64.of_int v);
  if record then record_store t off 8

let write_int t off v = write_int_k t off v ~record:true

let write_int_transient t off v = write_int_k t off v ~record:false

let read_string t off len =
  touch_range t off len;
  if past t off then String.make len '\000' else Bytes.sub_string t.cache off len

let blit_from_bytes t off buf pos len =
  if len > 0 then begin
    touch_range_write t off len;
    Bytes.blit buf pos t.cache off len;
    record_store t off len
  end

let write_string t off s = blit_from_bytes t off (Bytes.unsafe_of_string s) 0 (String.length s)

let blit_to_bytes t off buf pos len =
  touch_range t off len;
  if past t off then Bytes.fill buf pos len '\000' else Bytes.blit t.cache off buf pos len

let fill_zero t off len =
  if len > 0 then begin
    touch_range_write t off len;
    Bytes.fill t.cache off len '\000';
    record_store t off len
  end

let rec compare_from cache off len s i =
  let slen = String.length s in
  if i >= len || i >= slen then compare len slen
  else
    let c = Char.compare (Bytes.unsafe_get cache (off + i)) (String.unsafe_get s i) in
    if c <> 0 then c else compare_from cache off len s (i + 1)

let compare_string t off len s =
  touch_range t off len;
  if past t off then compare_from (Bytes.make (min len (String.length s)) '\000') 0 len s 0
  else compare_from t.cache off len s 0

(* [compare_from] against [s] followed by a 0 byte. *)
let rec compare_terminated_from cache off len s i =
  let slen = String.length s in
  if i >= len || i > slen then compare len (slen + 1)
  else
    let b = if i < slen then String.unsafe_get s i else '\000' in
    let c = Char.compare (Bytes.unsafe_get cache (off + i)) b in
    if c <> 0 then c else compare_terminated_from cache off len s (i + 1)

let compare_terminated t off len s =
  touch_range t off len;
  if past t off then compare_terminated_from (Bytes.make len '\000') 0 len s 0
  else compare_terminated_from t.cache off len s 0

(* eADR: the store itself is durable; the dirty line drains to the
   media in the background, consuming write bandwidth but never
   blocking the program. *)
let eadr_drain t off =
  let g = gline t off in
  if Des.Sched.running () then begin
    Des.Sched.stamp t.io;
    Device.write t.dev t.io ~xpline:(g lsr 2) ~bytes:64 ~from_numa:(Des.Sched.current_numa ())
  end
  else begin
    t.io.at <- 0.0;
    Device.write t.dev t.io ~xpline:(g lsr 2) ~bytes:64 ~from_numa:t.numa
  end;
  let line = off lsr 6 in
  Bytes.blit t.cache (line * line_size) t.media (line * line_size) line_size;
  clear_dirty t line

(* Report an effective clwb of [line] (a drain on eADR). *)
let record_clwb t line =
  if Machine.observed t.machine then begin
    let tid = Des.Sched.current_id () and pool = t.id in
    Machine.emit t.machine
      (if (Machine.profile t.machine).Config.eadr then Machine.Drain { tid; pool; line }
       else Machine.Clwb { tid; pool; line })
  end

(* A clwb (or eADR drain) of a line past the image grows the image. *)
let cover_line t off =
  if not (off >= 0 && off < Bytes.length t.cache) then begin
    check_range t off 1;
    grow t (off + 1)
  end

(* FliT-style flush tracking: a clwb is redundant when the line is
   already clean on media (cache == media), or when the calling thread
   itself staged the line and has not stored to it since (its pending
   fence persists exactly the current content).  A line staged by a
   {e different} thread is not redundant: that thread's fence may
   never come.  A redundant clwb is counted in [Stats.flushes_elided]
   (the elision opportunity) and executed in full.  A faulted
   (dropped) clwb models a missing call: it is neither counted nor
   reported. *)
let clwb t off =
  if not t.volatile then begin
    cover_line t off;
    let line = off lsr 6 in
    let stats = Machine.stats t.machine in
    if (Machine.profile t.machine).Config.eadr then begin
      if lines_equal t line then
        stats.Stats.flushes_elided <- stats.Stats.flushes_elided + 1;
      eadr_drain t off;
      record_clwb t line
    end
    else if not (Machine.flush_faulted t.machine) then begin
      if lines_equal t line || t.staged_by.(line) = Des.Sched.current_id () then
        stats.Stats.flushes_elided <- stats.Stats.flushes_elided + 1;
      stats.Stats.flushes <- stats.Stats.flushes + 1;
      Des.Sched.charge Config.clwb_cpu_cost;
      let g = gline t off in
      Machine.stage t.machine t.sink ~line ~xpline:(g lsr 2) t.cache (line * line_size);
      t.staged_by.(line) <- Des.Sched.current_id ();
      record_clwb t line;
      (* Current-generation clwb invalidates the line (FH4). *)
      Machine.cache_invalidate t.machine g
    end
  end

let flush_range t off len =
  if not t.volatile && len > 0 then begin
    let first = off lsr 6 and last = (off + len - 1) lsr 6 in
    for line = first to last do
      clwb t (line lsl 6)
    done
  end

let fence t = Machine.fence t.machine

let persist t off len =
  flush_range t off len;
  fence t

let fill_stale t off len c =
  if len > 0 then begin
    check_range t off len;
    grow t (off + len);
    Bytes.fill t.cache off len c;
    if not t.volatile then Bytes.fill t.media off len c
  end

let media_read_int t off =
  assert (not t.volatile);
  if past t off then 0 else Int64.to_int (Bytes.get_int64_le t.media off)

let line_content t line = Bytes.sub_string t.cache (line * line_size) line_size

let line_is_dirty t off = (not t.volatile) && (not (past t off)) && line_dirty t (off lsr 6)

let cas_int_k t off ~expected v ~record =
  assert (off land 7 = 0);
  touch_range_write t off 8;
  let cur = Int64.to_int (Bytes.get_int64_le t.cache off) in
  if cur = expected then begin
    Bytes.set_int64_le t.cache off (Int64.of_int v);
    if record then record_store t off 8;
    true
  end
  else false

let cas_int t off ~expected v = cas_int_k t off ~expected v ~record:true

let cas_int_transient t off ~expected v = cas_int_k t off ~expected v ~record:false
