(* Tests for the simulated NVM: persistence semantics, crash model,
   cost-model behaviours the paper's findings rely on (FH1-FH5). *)

module Machine = Nvm.Machine
module Pool = Nvm.Pool
module Stats = Nvm.Stats

let make_machine ?protocol () = Machine.create ?protocol ~numa_count:2 ()

let make_pool ?(capacity = 1 lsl 20) ?volatile machine =
  Pool.create machine ?volatile ~name:"test" ~numa:0 ~capacity ()

let test_rw_roundtrip () =
  let m = make_machine () in
  let p = make_pool m in
  Pool.write_u8 p 3 0xAB;
  Pool.write_u16 p 10 0xBEEF;
  Pool.write_u32 p 20 0xDEADBEE;
  Pool.write_int p 32 123456789;
  Pool.write_int64 p 40 (-1L);
  Pool.write_string p 100 "hello nvm";
  Alcotest.(check int) "u8" 0xAB (Pool.read_u8 p 3);
  Alcotest.(check int) "u16" 0xBEEF (Pool.read_u16 p 10);
  Alcotest.(check int) "u32" 0xDEADBEE (Pool.read_u32 p 20);
  Alcotest.(check int) "int" 123456789 (Pool.read_int p 32);
  Alcotest.(check int64) "int64" (-1L) (Pool.read_int64 p 40);
  Alcotest.(check string) "string" "hello nvm" (Pool.read_string p 100 9)

let test_compare_string () =
  let m = make_machine () in
  let p = make_pool m in
  Pool.write_string p 0 "abcdef";
  Alcotest.(check int) "equal" 0 (Pool.compare_string p 0 6 "abcdef");
  Alcotest.(check bool) "less" true (Pool.compare_string p 0 6 "abcdeg" < 0);
  Alcotest.(check bool) "greater" true (Pool.compare_string p 0 6 "abcdee" > 0);
  Alcotest.(check bool) "prefix shorter" true (Pool.compare_string p 0 6 "abcdefg" < 0);
  Alcotest.(check bool) "prefix longer" true (Pool.compare_string p 0 6 "abc" > 0)

let test_persist_survives_strict_crash () =
  let m = make_machine () in
  let p = make_pool m in
  Pool.write_int p 0 42;
  Pool.persist p 0 8;
  Pool.write_int p 64 99 (* dirty, never flushed *);
  Machine.crash m Machine.Strict;
  Alcotest.(check int) "persisted survives" 42 (Pool.read_int p 0);
  Alcotest.(check int) "unflushed lost" 0 (Pool.read_int p 64)

let test_clwb_without_fence_lost_strict () =
  let m = make_machine () in
  let p = make_pool m in
  Pool.write_int p 0 42;
  Pool.clwb p 0;
  (* no fence *)
  Machine.crash m Machine.Strict;
  Alcotest.(check int) "clwb without fence not durable" 0 (Pool.read_int p 0)

let test_flaky_crash_probabilistic () =
  let m = make_machine () in
  let p = make_pool m in
  for i = 0 to 99 do
    Pool.write_int p (i * 64) (i + 1)
  done;
  let rng = Des.Rng.create ~seed:5L in
  Machine.crash m (Machine.Flaky (0.5, rng));
  let survived = ref 0 in
  for i = 0 to 99 do
    if Pool.read_int p (i * 64) = i + 1 then incr survived
  done;
  Alcotest.(check bool) "some survived" true (!survived > 10);
  Alcotest.(check bool) "some lost" true (!survived < 90)

(* A persist whose byte range straddles a 64B line boundary must flush
   both lines — an off-by-one in the first/last line computation would
   leave the tail line volatile. *)
let test_persist_straddles_line () =
  let m = make_machine () in
  let p = make_pool m in
  Pool.write_string p 56 "straddles-a-line";
  let before = (Machine.stats m).Stats.flushes in
  Pool.persist p 56 16;
  Alcotest.(check int) "two lines flushed" 2 ((Machine.stats m).Stats.flushes - before);
  Machine.crash m Machine.Strict;
  Alcotest.(check string) "straddling value survives" "straddles-a-line"
    (Pool.read_string p 56 16)

let test_flush_range_zero_len () =
  let m = make_machine () in
  let p = make_pool m in
  Pool.write_int p 0 9;
  let before = (Machine.stats m).Stats.flushes in
  Pool.flush_range p 0 0;
  Pool.persist p 0 0;
  Alcotest.(check int) "zero-length flushes nothing" 0
    ((Machine.stats m).Stats.flushes - before);
  Machine.crash m Machine.Strict;
  Alcotest.(check int) "zero-length persists nothing" 0 (Pool.read_int p 0)

let test_persist_end_of_pool () =
  let capacity = 1 lsl 16 in
  let m = make_machine () in
  let p = make_pool ~capacity m in
  Pool.write_int p (capacity - 8) 4242;
  Pool.persist p (capacity - 8) 8 (* last 8 bytes: must not run past the pool *);
  Pool.flush_range p (capacity - 64) 64;
  Machine.crash m Machine.Strict;
  Alcotest.(check int) "last line survives" 4242 (Pool.read_int p (capacity - 8))

(* ---------- growable images ----------

   A pool's capacity is a bound: its images start at (at most) 128 KB
   ([image0]) and grow to cover the highest byte stored, flushed or
   drained. *)

let mb = 1 lsl 20

let image0 = 1 lsl 17

let raises_invalid f =
  match f () with _ -> false | exception Invalid_argument _ -> true

let test_read_past_image () =
  let m = make_machine () in
  let p = make_pool ~capacity:(1 lsl 30) m in
  let size = Pool.resident_bytes p in
  let far = 512 * mb in
  Alcotest.(check int) "u8" 0 (Pool.read_u8 p far);
  Alcotest.(check int) "u16" 0 (Pool.read_u16 p far);
  Alcotest.(check int) "u32" 0 (Pool.read_u32 p far);
  Alcotest.(check int) "int" 0 (Pool.read_int p far);
  Alcotest.(check int64) "int64" 0L (Pool.read_int64 p far);
  Alcotest.(check string) "string" (String.make 5 '\000') (Pool.read_string p far 5);
  let buf = Bytes.make 4 'x' in
  Pool.blit_to_bytes p far buf 0 4;
  Alcotest.(check string) "blit" (String.make 4 '\000') (Bytes.to_string buf);
  Alcotest.(check int) "compare equal to zeros" 0 (Pool.compare_string p far 2 "\000\000");
  Alcotest.(check bool) "compare below a key" true (Pool.compare_string p far 2 "\000a" < 0);
  Alcotest.(check int) "compare equal to a terminated key" 0
    (Pool.compare_terminated p far 2 "\000");
  Alcotest.(check bool) "compare longer than a terminated key" true
    (Pool.compare_terminated p far 3 "\000" > 0);
  Alcotest.(check int) "media" 0 (Pool.media_read_int p far);
  Alcotest.(check bool) "clean" false (Pool.line_is_dirty p far);
  Alcotest.(check int) "image unchanged" size (Pool.resident_bytes p)

let test_store_grows_image () =
  let m = make_machine () in
  let p = make_pool ~capacity:(1 lsl 30) m in
  Pool.write_int p 8 11;
  let size = Pool.resident_bytes p in
  let far = (5 * mb) + 64 in
  Pool.write_int p far 22;
  Alcotest.(check bool) "grew" true (Pool.resident_bytes p > size);
  Alcotest.(check int) "earlier bytes kept" 11 (Pool.read_int p 8);
  Alcotest.(check int) "stored" 22 (Pool.read_int p far);
  Alcotest.(check int) "zeros between" 0 (Pool.read_int p (3 * mb));
  (* a read that starts inside the image and runs past it grows it *)
  let q = make_pool ~capacity:(1 lsl 30) m in
  let size = Pool.resident_bytes q in
  Alcotest.(check string) "straddling read" (String.make 8 '\000') (Pool.read_string q (image0 - 4) 8);
  Alcotest.(check bool) "straddling read grew" true (Pool.resident_bytes q > size)

let test_span_old_end () =
  let m = make_machine () in
  let p = make_pool ~capacity:(1 lsl 30) m in
  Pool.write_string p (image0 - 4) "abcdefgh";
  Alcotest.(check string) "blit across the old end" "abcdefgh" (Pool.read_string p (image0 - 4) 8);
  let q = make_pool ~capacity:(1 lsl 30) m in
  Pool.write_int q (image0 - 8) 7;
  Pool.fill_zero q (image0 - 8) 16;
  Alcotest.(check int) "zeroed below the old end" 0 (Pool.read_int q (image0 - 8));
  Alcotest.(check int) "zeroed above the old end" 0 (Pool.read_int q image0);
  Pool.persist q (image0 - 8) 16;
  Machine.crash m Machine.Strict;
  Alcotest.(check int) "durable zeros" 0 (Pool.read_int q image0)

let test_capacity_bound () =
  let m = make_machine () in
  let cap = 2 * mb in
  let p = make_pool ~capacity:cap m in
  Pool.write_int p (cap - 8) 5;
  Alcotest.(check int) "last word" 5 (Pool.read_int p (cap - 8));
  Alcotest.(check bool) "store at the capacity" true
    (raises_invalid (fun () -> Pool.write_int p cap 1));
  Alcotest.(check bool) "read at the capacity" true
    (raises_invalid (fun () -> Pool.read_int p cap));
  Alcotest.(check bool) "read across the capacity" true
    (raises_invalid (fun () -> Pool.read_string p (cap - 4) 8));
  Alcotest.(check bool) "negative offset" true (raises_invalid (fun () -> Pool.read_u8 p (-1)));
  Alcotest.(check bool) "clwb past the capacity" true (raises_invalid (fun () -> Pool.clwb p cap));
  Alcotest.(check bool) "restore of a longer image" true
    (raises_invalid (fun () -> Pool.restore p (Bytes.make (cap + 64) '\000')))

let test_crash_after_growth () =
  let m = make_machine () in
  let p = make_pool ~capacity:(1 lsl 30) m in
  let far = 3 * mb in
  Pool.write_int p far 1;
  Pool.persist p far 8;
  Pool.write_int p (far + 64) 2;
  Machine.crash m Machine.Strict;
  Alcotest.(check int) "strict: persisted survives" 1 (Pool.read_int p far);
  Alcotest.(check int) "strict: unflushed lost" 0 (Pool.read_int p (far + 64));
  Pool.write_int p (far + 64) 3;
  Machine.crash m (Machine.Flaky (1.0, Des.Rng.create ~seed:1L));
  Alcotest.(check int) "flaky p=1: dirty line evicted" 3 (Pool.read_int p (far + 64))

let test_restore_shorter_image () =
  let m = make_machine () in
  let p = make_pool ~capacity:(1 lsl 30) m in
  Pool.write_int p 0 5;
  Pool.persist p 0 8;
  let img = Pool.media_image p in
  Alcotest.(check int) "image is the prefix" image0 (Bytes.length img);
  Pool.write_int p (3 * mb) 9;
  Pool.persist p (3 * mb) 8;
  Pool.write_int p 64 4;
  Pool.restore p img;
  Alcotest.(check int) "restored" 5 (Pool.read_int p 0);
  Alcotest.(check int) "unflushed store gone" 0 (Pool.read_int p 64);
  Alcotest.(check int) "zeros past the image" 0 (Pool.read_int p (3 * mb));
  Alcotest.(check bool) "clean" false (Pool.line_is_dirty p (3 * mb));
  Pool.restore p (Bytes.make 64 '\001');
  Alcotest.(check int) "a one-line image" 0x0101010101010101 (Pool.read_int p 0);
  Alcotest.(check int) "zeros past it" 0 (Pool.read_int p 64)

(* One line flushed twice in a row with no intervening store: the
   second clwb is redundant and must be counted as elidable — and
   still executed. *)
let test_flush_tracking_counts_redundant () =
  let m = make_machine () in
  let p = make_pool m in
  Pool.write_int p 0 1;
  Pool.persist p 0 8;
  let s = Machine.stats m in
  let flushes = s.Stats.flushes and elided = s.Stats.flushes_elided in
  Pool.persist p 0 8;
  Alcotest.(check int) "redundant clwb counted as elidable" (elided + 1)
    s.Stats.flushes_elided;
  Alcotest.(check int) "still executed" (flushes + 1) s.Stats.flushes;
  (* After a fresh store the line is genuinely dirty again. *)
  Pool.write_int p 0 2;
  Pool.persist p 0 8;
  Alcotest.(check int) "dirty line not counted" (elided + 1) s.Stats.flushes_elided;
  Machine.crash m Machine.Strict;
  Alcotest.(check int) "value durable throughout" 2 (Pool.read_int p 0)

(* A line that differs from media in any one byte is not clean: its
   clwb is not redundant, and once fenced the next one is.  Every byte
   of three lines, the last one the last line of a grown image. *)
let test_flush_tracking_each_byte () =
  let m = make_machine () in
  let p = make_pool m in
  Pool.write_int p image0 1;
  let len = Bytes.length (Pool.media_image p) in
  Alcotest.(check bool) "image grown" true (len > image0);
  let s = Machine.stats m in
  List.iter
    (fun line ->
      Pool.persist p line 64;
      for i = 0 to 63 do
        let off = line + i in
        Pool.write_u8 p off (Pool.read_u8 p off lxor 0x80);
        let elided = s.Stats.flushes_elided in
        Pool.clwb p line;
        Alcotest.(check int) (Printf.sprintf "line %d byte %d differs" line i) elided
          s.Stats.flushes_elided;
        Pool.fence p;
        Pool.clwb p line;
        Alcotest.(check int) (Printf.sprintf "line %d byte %d persisted" line i) (elided + 1)
          s.Stats.flushes_elided;
        Pool.fence p
      done)
    [ 0; 320; len - 64 ]

let test_flaky_p1_persists_all_dirty () =
  let m = make_machine () in
  let p = make_pool m in
  Pool.write_int p 0 7;
  let rng = Des.Rng.create ~seed:5L in
  Machine.crash m (Machine.Flaky (1.0, rng));
  Alcotest.(check int) "dirty line evicted to media" 7 (Pool.read_int p 0)

let test_overwrite_after_clwb () =
  (* The clwb snapshot is what the fence persists; later stores to the
     same line need their own flush. *)
  let m = make_machine () in
  let p = make_pool m in
  Pool.write_int p 0 1;
  Pool.clwb p 0;
  Pool.write_int p 0 2;
  Pool.fence p;
  Machine.crash m Machine.Strict;
  Alcotest.(check int) "snapshot value persisted" 1 (Pool.read_int p 0)

let test_volatile_pool_lost_on_crash () =
  let m = make_machine () in
  let p = make_pool ~volatile:true m in
  Pool.write_int p 0 42;
  Pool.persist p 0 8 (* no-op flush on DRAM *);
  Machine.crash m Machine.Strict;
  Alcotest.(check int) "dram wiped" 0 (Pool.read_int p 0)

let test_media_read_int () =
  let m = make_machine () in
  let p = make_pool m in
  Pool.write_int p 0 42;
  Alcotest.(check int) "not yet in media" 0 (Pool.media_read_int p 0);
  Alcotest.(check bool) "line dirty" true (Pool.line_is_dirty p 0);
  Pool.persist p 0 8;
  Alcotest.(check int) "in media after persist" 42 (Pool.media_read_int p 0);
  Alcotest.(check bool) "line clean" false (Pool.line_is_dirty p 0)

let test_flush_counts () =
  let m = make_machine () in
  let p = make_pool m in
  let before = Stats.snapshot (Machine.stats m) in
  Pool.write_int p 0 1;
  Pool.persist p 0 8;
  let d = Stats.diff (Machine.stats m) before in
  Alcotest.(check int) "one clwb" 1 d.Stats.flushes;
  Alcotest.(check int) "one sfence" 1 d.Stats.fences

(* A non-temporal store to lines that are not cached charges no line
   access and reads nothing from the media; it counts one flush per
   line, reports each line's store and then its clwb, and leaves the
   lines out of the CPU cache, so the next read misses.  Before a fence
   a strict crash loses it; after one it is durable. *)
let test_ntstore () =
  let m = make_machine () in
  let p = make_pool m in
  let events = ref [] in
  let unsubscribe =
    Machine.subscribe m (function
      | Machine.Store { line; _ } -> events := `Store line :: !events
      | Machine.Clwb { line; _ } -> events := `Clwb line :: !events
      | Machine.Fence _ -> events := `Fence :: !events
      | Machine.Drain _ -> ())
  in
  let buf = Bytes.make 80 'x' in
  Bytes.set_int64_le buf 8 42L;
  let before = Stats.snapshot (Machine.total_stats m) in
  Pool.ntstore p 120 buf 0 80 (* lines 1-3 *);
  let d = Stats.diff (Machine.total_stats m) before in
  Alcotest.(check int) "no cache hit" 0 d.Stats.cache_hits;
  Alcotest.(check int) "no cache miss" 0 d.Stats.cache_misses;
  Alcotest.(check int) "no store miss" 0 d.Stats.store_misses;
  Alcotest.(check int) "no media read" 0 d.Stats.media_reads;
  Alcotest.(check int) "one flush per line" 3 d.Stats.flushes;
  Alcotest.(check int) "none redundant" 0 d.Stats.flushes_elided;
  Alcotest.(check int) "no fence" 0 d.Stats.fences;
  Alcotest.(check bool) "stores, then clwbs" true
    (List.rev !events = [ `Store 1; `Store 2; `Store 3; `Clwb 1; `Clwb 2; `Clwb 3 ]);
  unsubscribe ();
  let before = Stats.snapshot (Machine.stats m) in
  Alcotest.(check int) "the bytes are stored" 42 (Pool.read_int p 128);
  let d = Stats.diff (Machine.stats m) before in
  Alcotest.(check int) "the next read misses" 1 d.Stats.cache_misses;
  Machine.crash m Machine.Strict;
  Alcotest.(check int) "lost by a strict crash before the fence" 0 (Pool.read_int p 128);
  (* a cached line leaves the cache too *)
  ignore (Pool.read_int p 128);
  Pool.ntstore p 120 buf 0 80;
  Pool.fence p;
  let before = Stats.snapshot (Machine.stats m) in
  ignore (Pool.read_int p 128);
  let d = Stats.diff (Machine.stats m) before in
  Alcotest.(check int) "a cached line is evicted" 1 d.Stats.cache_misses;
  Machine.crash m Machine.Strict;
  Alcotest.(check int) "durable after the fence" 42 (Pool.read_int p 128)

(* A store to a line that is not cached is a read for ownership: a
   cache miss, counted apart as a store miss; a load miss is not. *)
let test_store_misses () =
  let m = make_machine () in
  let p = make_pool m in
  let before = Stats.snapshot (Machine.stats m) in
  Pool.write_int p 0 1;
  ignore (Pool.read_int p 64);
  Pool.write_int p 0 2;
  let d = Stats.diff (Machine.stats m) before in
  Alcotest.(check int) "misses" 2 d.Stats.cache_misses;
  Alcotest.(check int) "store misses" 1 d.Stats.store_misses

let test_write_combining_groups_xpline () =
  (* Flushing 4 lines of one XPLine then fencing must produce a single
     full (non-RMW) media write; a single line flush is a partial RMW
     write (FH1 write amplification). *)
  let m = make_machine () in
  let p = make_pool m in
  let dev_stats = Nvm.Device.stats (Machine.device m 0) in
  let before = Stats.snapshot dev_stats in
  for line = 0 to 3 do
    Pool.write_int p (line * 64) 1;
    Pool.clwb p (line * 64)
  done;
  Pool.fence p;
  let d = Stats.diff dev_stats before in
  Alcotest.(check int) "one media write" 1 d.Stats.media_writes;
  Alcotest.(check int) "no rmw read" 0 d.Stats.rmw_reads;
  let before = Stats.snapshot dev_stats in
  Pool.write_int p 1024 1;
  Pool.persist p 1024 8;
  let d = Stats.diff dev_stats before in
  Alcotest.(check int) "partial write" 1 d.Stats.media_writes;
  Alcotest.(check int) "rmw amplification" 1 d.Stats.rmw_reads

let run_in_sim f =
  let sched = Des.Sched.create () in
  let result = ref None in
  Des.Sched.spawn sched ~name:"t" (fun () -> result := Some (f sched));
  Des.Sched.run sched;
  Option.get !result

(* Software prefetch.  The lines used lie in distinct, non-adjacent
   XPLines, so no read-buffer hit or XPPrefetcher run shortens a fetch. *)

let hit_cost = Nvm.Config.cache_hit_cost

(* A prefetch of a line that is not cached is no line access: no hit,
   no miss, no store miss and no logical byte.  It books one device
   read, counts one software prefetch and returns at once, for the
   cost of a hit.  A read before the line arrives waits for it and is a
   hit and a late one; the read ends a cache hit after the time a miss
   would have taken.  A read after the arrival is a plain hit. *)
let test_prefetch () =
  let m = make_machine () in
  let p = make_pool m in
  let miss, issue, late, later, d_pre, d_late, d_later =
    run_in_sim (fun sched ->
        let elapsed f =
          let t0 = Des.Sched.now sched in
          f ();
          Des.Sched.delay 0.0;
          Des.Sched.now sched -. t0
        in
        let miss = elapsed (fun () -> ignore (Pool.read_int p 4096)) in
        let s0 = Stats.snapshot (Machine.total_stats m) in
        let t0 = Des.Sched.now sched in
        Pool.prefetch p 8192 1;
        Des.Sched.delay 0.0;
        let issue = Des.Sched.now sched -. t0 in
        let d_pre = Stats.diff (Machine.total_stats m) s0 in
        let s1 = Stats.snapshot (Machine.total_stats m) in
        ignore (Pool.read_int p 8192);
        Des.Sched.delay 0.0;
        let late = Des.Sched.now sched -. t0 in
        let d_late = Stats.diff (Machine.total_stats m) s1 in
        Pool.prefetch p 12288 1;
        Des.Sched.delay 1e-6;
        let s2 = Stats.snapshot (Machine.total_stats m) in
        let later = elapsed (fun () -> ignore (Pool.read_int p 12288)) in
        let d_later = Stats.diff (Machine.total_stats m) s2 in
        (miss, issue, late, later, d_pre, d_late, d_later))
  in
  Alcotest.(check int) "prefetch: no hit" 0 d_pre.Stats.cache_hits;
  Alcotest.(check int) "prefetch: no miss" 0 d_pre.Stats.cache_misses;
  Alcotest.(check int) "prefetch: no store miss" 0 d_pre.Stats.store_misses;
  Alcotest.(check int) "prefetch: no logical byte" 0 d_pre.Stats.logical_read_bytes;
  Alcotest.(check int) "prefetch: one device read" 1
    (d_pre.Stats.media_reads + d_pre.Stats.buffer_hits);
  Alcotest.(check int) "prefetch: counted" 1 d_pre.Stats.sw_prefetches;
  Alcotest.(check (float 1e-15)) "prefetch: costs a hit, no wait" hit_cost issue;
  Alcotest.(check int) "early read: a hit" 1 d_late.Stats.cache_hits;
  Alcotest.(check int) "early read: late" 1 d_late.Stats.late_hits;
  Alcotest.(check int) "early read: no miss" 0 d_late.Stats.cache_misses;
  Alcotest.(check int) "early read: no device read" 0
    (d_late.Stats.media_reads + d_late.Stats.buffer_hits);
  Alcotest.(check (float 1e-15)) "early read: waits for the arrival" (miss +. hit_cost) late;
  Alcotest.(check int) "read after arrival: a hit" 1 d_later.Stats.cache_hits;
  Alcotest.(check int) "read after arrival: not late" 0 d_later.Stats.late_hits;
  Alcotest.(check (float 1e-15)) "read after arrival: a hit's cost" hit_cost later

(* A prefetch of a cached line does nothing: no time, no counter.  On
   ADR a clwb evicts the line, and a prefetch then fetches it; on eADR
   the line stays cached and the prefetch still does nothing. *)
let test_prefetch_cached () =
  List.iter
    (fun profile ->
      let m = Machine.create ~profile ~numa_count:1 () in
      let p = make_pool m in
      let eadr = profile.Nvm.Config.eadr in
      let name = if eadr then "eADR" else "ADR" in
      run_in_sim (fun sched ->
          ignore (Pool.read_int p 0);
          let s0 = Stats.snapshot (Machine.total_stats m) in
          let t0 = Des.Sched.now sched in
          Pool.prefetch p 0 1;
          Des.Sched.delay 0.0;
          Alcotest.(check bool) (name ^ ": cached, nothing counted") true
            (Stats.is_zero (Stats.diff (Machine.total_stats m) s0));
          Alcotest.(check (float 0.0)) (name ^ ": cached, no time") 0.0
            (Des.Sched.now sched -. t0);
          Pool.write_int p 0 1;
          Pool.persist p 0 8;
          let s1 = Stats.snapshot (Machine.stats m) in
          Pool.prefetch p 0 1;
          let d = Stats.diff (Machine.stats m) s1 in
          Alcotest.(check int) (name ^ ": after a clwb") (if eadr then 0 else 1)
            d.Stats.sw_prefetches))
    [ Nvm.Config.dcpmm; Nvm.Config.dcpmm_eadr ]

(* A prefetch emits no persist event: the crashmc trace records only
   the store, clwb and fence around it, and the sanitizer reports
   nothing. *)
let test_prefetch_no_event () =
  let m = make_machine () in
  let p = make_pool m in
  let trace = Crashmc.Trace.start m in
  Pobj.Sanitizer.enable m;
  run_in_sim (fun _ ->
      Pool.write_int p 0 1;
      Pool.persist p 0 8;
      Pool.prefetch p 0 1;
      Pool.prefetch p 4096 1;
      Pool.fence p);
  Pobj.Sanitizer.disable m;
  Crashmc.Trace.stop trace;
  Alcotest.(check int) "store, clwb, fence, fence" 4
    (Array.length (Crashmc.Trace.events trace));
  Alcotest.(check int) "no sanitizer report" 0 (Pobj.Sanitizer.total ())

(* A crash loses a line still in flight with the rest of the CPU
   cache: the next read misses. *)
let test_prefetch_crash () =
  let m = make_machine () in
  let p = make_pool m in
  let d =
    run_in_sim (fun _ ->
        Pool.prefetch p 4096 1;
        Machine.crash m Machine.Strict;
        let s0 = Stats.snapshot (Machine.stats m) in
        ignore (Pool.read_int p 4096);
        Stats.diff (Machine.stats m) s0)
  in
  Alcotest.(check int) "a miss" 1 d.Stats.cache_misses;
  Alcotest.(check int) "not a late hit" 0 d.Stats.late_hits

(* A range prefetch.  A device read here is a request to the device:
   a media read that the XPPrefetcher did not issue, or a buffer hit. *)
let device_reads d = d.Stats.media_reads - d.Stats.prefetches + d.Stats.buffer_hits

(* A range of eight lines over two XPLines books one device read per
   XPLine and fetches each line, for a hit's cost apiece. *)
let test_prefetch_range_xplines () =
  let m = make_machine () in
  let p = make_pool m in
  let d, issue =
    run_in_sim (fun sched ->
        let s0 = Stats.snapshot (Machine.total_stats m) in
        let t0 = Des.Sched.now sched in
        Pool.prefetch p 8192 512;
        Des.Sched.delay 0.0;
        (Stats.diff (Machine.total_stats m) s0, Des.Sched.now sched -. t0))
  in
  Alcotest.(check int) "two device reads" 2 (device_reads d);
  Alcotest.(check int) "eight lines" 8 d.Stats.sw_prefetches;
  Alcotest.(check (float 1e-15)) "a hit's cost per line" (8.0 *. hit_cost) issue

(* The lines of an XPLine arrive with it: a read of its 4th line at once
   waits for the XPLine's media read and is a late hit; the device
   answers no request for it from its buffer. *)
let test_prefetch_range_arrival () =
  let m = make_machine () in
  let p = make_pool m in
  let miss, late, d =
    run_in_sim (fun sched ->
        let t0 = Des.Sched.now sched in
        ignore (Pool.read_int p 4096);
        Des.Sched.delay 0.0;
        let miss = Des.Sched.now sched -. t0 in
        let s0 = Stats.snapshot (Machine.total_stats m) in
        let t0 = Des.Sched.now sched in
        Pool.prefetch p 8192 256;
        ignore (Pool.read_int p (8192 + 192));
        Des.Sched.delay 0.0;
        (miss, Des.Sched.now sched -. t0, Stats.diff (Machine.total_stats m) s0))
  in
  Alcotest.(check int) "one device read" 1 (device_reads d);
  Alcotest.(check int) "no buffer hit" 0 d.Stats.buffer_hits;
  Alcotest.(check int) "no early buffer hit" 0 d.Stats.early_buffer_hits;
  Alcotest.(check int) "4th line: a hit" 1 d.Stats.cache_hits;
  Alcotest.(check int) "4th line: late" 1 d.Stats.late_hits;
  Alcotest.(check (float 1e-15)) "4th line: waits for the XPLine" (miss +. hit_cost) late

(* Lines already cached are left alone: a range half cached fetches
   only the other half, and a range wholly cached does nothing. *)
let test_prefetch_range_cached () =
  let m = make_machine () in
  let p = make_pool m in
  run_in_sim (fun sched ->
      ignore (Pool.read_int p 0);
      ignore (Pool.read_int p 64);
      ignore (Pool.read_int p 128);
      ignore (Pool.read_int p 192);
      Des.Sched.delay 1e-6;
      let s0 = Stats.snapshot (Machine.total_stats m) in
      let t0 = Des.Sched.now sched in
      Pool.prefetch p 0 512;
      Des.Sched.delay 0.0;
      let d = Stats.diff (Machine.total_stats m) s0 in
      Alcotest.(check int) "half cached: one device read" 1 (device_reads d);
      Alcotest.(check int) "half cached: four lines" 4 d.Stats.sw_prefetches;
      Alcotest.(check (float 1e-15)) "half cached: four lines' cost" (4.0 *. hit_cost)
        (Des.Sched.now sched -. t0);
      let s1 = Stats.snapshot (Machine.total_stats m) in
      let t1 = Des.Sched.now sched in
      Pool.prefetch p 0 512;
      Des.Sched.delay 0.0;
      Alcotest.(check bool) "cached: nothing counted" true
        (Stats.is_zero (Stats.diff (Machine.total_stats m) s1));
      Alcotest.(check (float 0.0)) "cached: no time" 0.0 (Des.Sched.now sched -. t1))

(* A range covers 1 to [Config.fill_buffers] lines. *)
let test_prefetch_range_bound () =
  let m = make_machine () in
  let p = make_pool m in
  let lines = Nvm.Config.fill_buffers in
  Pool.prefetch p 0 (64 * lines);
  let raises what off len =
    match Pool.prefetch p off len with
    | () -> Alcotest.failf "%s: no Invalid_argument" what
    | exception Invalid_argument _ -> ()
  in
  raises "one line too many" 4096 (64 * (lines + 1));
  raises "fill_buffers lines' bytes over one line too many" (4096 + 32) (64 * lines);
  raises "an empty range" 4096 0

(* Outside a simulation every line arrives at once: reading them later
   in a simulation is plain hits. *)
let test_prefetch_range_outside () =
  let m = make_machine () in
  let p = make_pool m in
  Pool.prefetch p 8192 512;
  run_in_sim (fun sched ->
      let s0 = Stats.snapshot (Machine.total_stats m) in
      let t0 = Des.Sched.now sched in
      for l = 0 to 7 do
        ignore (Pool.read_int p (8192 + (64 * l)))
      done;
      Des.Sched.delay 0.0;
      let d = Stats.diff (Machine.total_stats m) s0 in
      Alcotest.(check int) "eight hits" 8 d.Stats.cache_hits;
      Alcotest.(check int) "none late" 0 d.Stats.late_hits;
      Alcotest.(check (float 1e-15)) "hits' cost" (8.0 *. hit_cost) (Des.Sched.now sched -. t0))

let test_sequential_read_faster_than_random () =
  (* FH3: sequential reads exploit the read buffer and prefetcher.
     Both patterns touch 4096 (mostly) distinct lines; the random one
     draws from a 16MB region so CPU cache reuse is negligible. *)
  let time_pattern sequential =
    run_in_sim (fun sched ->
        let m = make_machine () in
        let p = make_pool ~capacity:(1 lsl 24) m in
        let rng = Des.Rng.create ~seed:3L in
        let start = Des.Sched.now sched in
        for i = 0 to 4095 do
          let off =
            if sequential then i * 64 else Des.Rng.int rng (1 lsl 18) * 64
          in
          ignore (Pool.read_int p off)
        done;
        Des.Sched.delay 0.0;
        Des.Sched.now sched -. start)
  in
  let seq = time_pattern true and rand = time_pattern false in
  Alcotest.(check bool)
    (Printf.sprintf "sequential (%.2e) at least 2x faster than random (%.2e)" seq rand)
    true
    (seq *. 2.0 < rand)

let test_cache_hits_are_cheap () =
  let first, second =
    run_in_sim (fun sched ->
        let m = make_machine () in
        let p = make_pool m in
        let t0 = Des.Sched.now sched in
        ignore (Pool.read_int p 0);
        Des.Sched.delay 0.0;
        let t1 = Des.Sched.now sched in
        ignore (Pool.read_int p 0);
        Des.Sched.delay 0.0;
        let t2 = Des.Sched.now sched in
        (t1 -. t0, t2 -. t1))
  in
  Alcotest.(check bool) "second access is a cache hit" true (second *. 5.0 < first)

let test_directory_protocol_generates_writes () =
  (* FH5: under the directory protocol, remote reads write directory
     state to the media; under snoop they do not. *)
  let remote_reads protocol =
    run_in_sim (fun _sched ->
        let m = make_machine ~protocol () in
        let p = make_pool m in
        ignore p;
        (* Thread on NUMA 1 reads pool on NUMA 0. *)
        m)
    |> ignore
  in
  ignore remote_reads;
  let run protocol =
    let m = Machine.create ~protocol ~numa_count:2 () in
    let p = Pool.create m ~name:"remote" ~numa:0 ~capacity:(1 lsl 20) () in
    let sched = Des.Sched.create () in
    Des.Sched.spawn sched ~numa:1 ~name:"remote-reader" (fun () ->
        let rng = Des.Rng.create ~seed:11L in
        for _ = 1 to 2048 do
          ignore (Pool.read_int p (Des.Rng.int rng (1 lsl 14) * 64))
        done);
    Des.Sched.run sched;
    Nvm.Device.stats (Machine.device m 0)
  in
  let dir = run Nvm.Config.Directory and snoop = run Nvm.Config.Snoop in
  Alcotest.(check bool) "directory writes present" true (dir.Stats.dir_writes > 1000);
  Alcotest.(check int) "snoop: none" 0 snoop.Stats.dir_writes;
  Alcotest.(check bool) "dir write traffic comparable to reads" true
    (Stats.total_write_bytes dir * 2 > Stats.total_read_bytes dir / 2)

let test_local_reads_no_directory_writes () =
  let m = Machine.create ~protocol:Nvm.Config.Directory ~numa_count:2 () in
  let p = Pool.create m ~name:"local" ~numa:0 ~capacity:(1 lsl 20) () in
  let sched = Des.Sched.create () in
  Des.Sched.spawn sched ~numa:0 ~name:"local-reader" (fun () ->
      for i = 0 to 1023 do
        ignore (Pool.read_int p (i * 64))
      done);
  Des.Sched.run sched;
  let stats = Nvm.Device.stats (Machine.device m 0) in
  Alcotest.(check int) "no directory writes for local reads" 0 stats.Stats.dir_writes

let test_bandwidth_saturation () =
  (* GC1: aggregate throughput saturates as readers contend for the
     device channels. *)
  let elapsed_with threads =
    let m = make_machine () in
    let p = Pool.create m ~name:"bw" ~numa:0 ~capacity:(1 lsl 22) () in
    let sched = Des.Sched.create () in
    for t = 0 to threads - 1 do
      Des.Sched.spawn sched ~numa:0 ~name:(Printf.sprintf "r%d" t) (fun () ->
          let rng = Des.Rng.create ~seed:(Int64.of_int (t + 1)) in
          for _ = 1 to 2048 do
            ignore (Pool.read_int p (Des.Rng.int rng (1 lsl 16) * 64))
          done)
    done;
    Des.Sched.run sched;
    Des.Sched.now sched
  in
  let t1 = elapsed_with 1 and t64 = elapsed_with 64 in
  (* 64 threads do 64x the work; with ~16 channels the elapsed time
     must grow (bandwidth bound), but far less than 64x. *)
  Alcotest.(check bool) "more threads take longer" true (t64 > t1 *. 1.5);
  Alcotest.(check bool) "but scale via parallel channels" true (t64 < t1 *. 32.0)

let test_read_write_asymmetry () =
  (* FH2: writes are slower than reads. *)
  let m = make_machine () in
  let p = make_pool m in
  let read_time =
    run_in_sim (fun sched ->
        let start = Des.Sched.now sched in
        ignore (Pool.read_int p (1 lsl 16));
        Des.Sched.delay 0.0;
        Des.Sched.now sched -. start)
  in
  let write_time =
    run_in_sim (fun sched ->
        let start = Des.Sched.now sched in
        Pool.write_int p (1 lsl 17) 1;
        Pool.persist p (1 lsl 17) 8;
        Des.Sched.now sched -. start)
  in
  Alcotest.(check bool)
    (Printf.sprintf "persist (%.2e) slower than read (%.2e)" write_time read_time)
    true
    (write_time > read_time *. 1.5)

let test_stats_roundtrip () =
  let s = Stats.create () in
  s.Stats.media_reads <- 10;
  s.Stats.media_read_bytes <- 2560;
  let snap = Stats.snapshot s in
  s.Stats.media_reads <- 15;
  let d = Stats.diff s snap in
  Alcotest.(check int) "diff" 5 d.Stats.media_reads;
  Stats.add snap d;
  Alcotest.(check int) "add" 15 snap.Stats.media_reads;
  Stats.reset s;
  Alcotest.(check int) "reset" 0 s.Stats.media_reads

let test_config_bandwidths () =
  let open Nvm.Config in
  Alcotest.(check bool) "default read bw ~ tens of GB/s" true
    (read_bandwidth dcpmm > 10e9 && read_bandwidth dcpmm < 100e9);
  Alcotest.(check bool) "write bw below read bw" true
    (write_bandwidth dcpmm < read_bandwidth dcpmm);
  Alcotest.(check bool) "low-bw machine ~3x lower" true
    (read_bandwidth dcpmm_low_bw *. 2.5 < read_bandwidth dcpmm)

(* The CPU cache is physically indexed: one slot per line for [slots]
   consecutive lines of a pool, and pools start at different slots, so
   line [i] of every pool no longer contends for one slot. *)
let test_cache_slots () =
  let machine = Machine.create ~numa_count:1 () in
  let slots = 1 lsl Nvm.Config.cache_slots_log2 in
  let pools =
    List.init 3 (fun i ->
        Pool.create machine ~name:(string_of_int i) ~numa:0 ~capacity:(slots * 64) ())
  in
  List.iter
    (fun p ->
      let used = Array.make slots false in
      for line = 0 to slots - 1 do
        used.(Pool.cache_slot p (line * 64)) <- true
      done;
      Alcotest.(check bool) (Pool.name p ^ ": consecutive lines fill every slot") true
        (Array.for_all Fun.id used))
    pools;
  let firsts = List.sort_uniq compare (List.map (fun p -> Pool.cache_slot p 0) pools) in
  Alcotest.(check int) "line 0 of three pools: three slots" 3 (List.length firsts)

(* A fence writes its (numa, xpline) groups in the order a [Hashtbl]
   built from the staged lines iterates them: that order picks device
   channels under saturation, so every simulated result depends on it.
   The staged lines: 1 to 200 distinct lines, so that the table's
   resizes at 33, 65 and 129 groups are crossed, each staged one to
   four times, in random order. *)
let gen_staged =
  QCheck.Gen.(
    int_range 1 200 >>= fun groups ->
    list_repeat groups (pair (int_bound 3) (int_bound 1_000_000)) >>= fun lines ->
    flatten_l
      (List.map
         (fun line -> map (fun n -> List.init n (fun _ -> line)) (int_range 1 4))
         (List.sort_uniq compare lines))
    >>= fun staged -> shuffle_l (List.concat staged))

let hashtbl_order staged =
  let groups = Hashtbl.create 8 in
  List.iter
    (fun key ->
      let count = try Hashtbl.find groups key with Not_found -> 0 in
      Hashtbl.replace groups key (count + 1))
    staged;
  let acc = ref [] in
  Hashtbl.iter (fun (numa, xpline) count -> acc := (numa, xpline, count) :: !acc) groups;
  List.rev !acc

let test_fence_order =
  QCheck.Test.make ~name:"machine: fence visits groups in Hashtbl order" ~count:300
    (QCheck.make
       ~print:QCheck.Print.(list (pair int int))
       gen_staged)
    (fun staged -> Machine.fence_order staged = hashtbl_order staged)

let suite =
  [
    Alcotest.test_case "machine: cache slots are pool-aware" `Quick test_cache_slots;
    Alcotest.test_case "pool: typed read/write roundtrip" `Quick test_rw_roundtrip;
    Alcotest.test_case "pool: compare_string" `Quick test_compare_string;
    Alcotest.test_case "crash: persist survives strict" `Quick
      test_persist_survives_strict_crash;
    Alcotest.test_case "crash: clwb without fence lost" `Quick
      test_clwb_without_fence_lost_strict;
    Alcotest.test_case "crash: flaky is probabilistic" `Quick
      test_flaky_crash_probabilistic;
    Alcotest.test_case "crash: flaky p=1 evicts dirty" `Quick
      test_flaky_p1_persists_all_dirty;
    Alcotest.test_case "crash: clwb snapshots its line" `Quick test_overwrite_after_clwb;
    Alcotest.test_case "persist: straddles a 64B line" `Quick test_persist_straddles_line;
    Alcotest.test_case "persist: zero-length is a no-op" `Quick test_flush_range_zero_len;
    Alcotest.test_case "persist: end of pool" `Quick test_persist_end_of_pool;
    Alcotest.test_case "image: read past it sees zeros" `Quick test_read_past_image;
    Alcotest.test_case "image: a store grows it" `Quick test_store_grows_image;
    Alcotest.test_case "image: writes across its end" `Quick test_span_old_end;
    Alcotest.test_case "image: the capacity still bounds" `Quick test_capacity_bound;
    Alcotest.test_case "image: crashes after growth" `Quick test_crash_after_growth;
    Alcotest.test_case "image: restore a shorter image" `Quick test_restore_shorter_image;
    Alcotest.test_case "flush tracking: redundant clwbs" `Quick
      test_flush_tracking_counts_redundant;
    Alcotest.test_case "flush tracking: one differing byte at each offset" `Quick
      test_flush_tracking_each_byte;
    Alcotest.test_case "crash: volatile pool wiped" `Quick test_volatile_pool_lost_on_crash;
    Alcotest.test_case "pool: media image inspection" `Quick test_media_read_int;
    Alcotest.test_case "stats: flush/fence counts" `Quick test_flush_counts;
    Alcotest.test_case "pool: a non-temporal store" `Quick test_ntstore;
    Alcotest.test_case "stats: store misses" `Quick test_store_misses;
    Alcotest.test_case "pool: a software prefetch" `Quick test_prefetch;
    Alcotest.test_case "pool: a prefetch of a cached line" `Quick test_prefetch_cached;
    Alcotest.test_case "pool: a prefetch emits no persist event" `Quick
      test_prefetch_no_event;
    Alcotest.test_case "crash: lines in flight are lost" `Quick test_prefetch_crash;
    Alcotest.test_case "pool: a range prefetch reads once per XPLine" `Quick
      test_prefetch_range_xplines;
    Alcotest.test_case "pool: a range's lines arrive with their XPLine" `Quick
      test_prefetch_range_arrival;
    Alcotest.test_case "pool: a range prefetch skips cached lines" `Quick
      test_prefetch_range_cached;
    Alcotest.test_case "pool: a range covers at most fill_buffers lines" `Quick
      test_prefetch_range_bound;
    Alcotest.test_case "pool: a range prefetch outside a simulation" `Quick
      test_prefetch_range_outside;
    Alcotest.test_case "device: write combining (FH3)" `Quick
      test_write_combining_groups_xpline;
    Alcotest.test_case "device: sequential beats random (FH3)" `Quick
      test_sequential_read_faster_than_random;
    Alcotest.test_case "machine: cpu cache hits cheap" `Quick test_cache_hits_are_cheap;
    Alcotest.test_case "device: directory coherence writes (FH5)" `Quick
      test_directory_protocol_generates_writes;
    Alcotest.test_case "device: local reads have no dir writes" `Quick
      test_local_reads_no_directory_writes;
    Alcotest.test_case "device: bandwidth saturation (GC1)" `Quick
      test_bandwidth_saturation;
    Alcotest.test_case "device: read/write asymmetry (FH2)" `Quick
      test_read_write_asymmetry;
    Alcotest.test_case "stats: snapshot/diff/add/reset" `Quick test_stats_roundtrip;
    Alcotest.test_case "config: bandwidth presets" `Quick test_config_bandwidths;
    QCheck_alcotest.to_alcotest test_fence_order;
  ]
