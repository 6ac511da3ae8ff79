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
  Alcotest.(check bool) "compare shorter prefix" true (Pool.compare_prefix p far 3 "\000\000" 2 > 0);
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
   second clwb is redundant and must be counted as elidable — and with
   elision off (the default) still executed. *)
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
  Alcotest.(check int) "still executed with elision off" (flushes + 1) s.Stats.flushes;
  Machine.set_flush_elision m true;
  Pool.persist p 0 8;
  Alcotest.(check int) "skipped with elision on" (flushes + 1) s.Stats.flushes;
  Alcotest.(check int) "and still counted" (elided + 2) s.Stats.flushes_elided;
  (* After a fresh store the line is genuinely dirty again. *)
  Pool.write_int p 0 2;
  Pool.persist p 0 8;
  Alcotest.(check int) "dirty line not elided" (flushes + 2) s.Stats.flushes;
  Machine.crash m Machine.Strict;
  Alcotest.(check int) "value durable throughout" 2 (Pool.read_int p 0)

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
  let slots = 1 lsl (Machine.profile machine).Nvm.Config.cache_slots_log2 in
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
    Alcotest.test_case "crash: volatile pool wiped" `Quick test_volatile_pool_lost_on_crash;
    Alcotest.test_case "pool: media image inspection" `Quick test_media_read_int;
    Alcotest.test_case "stats: flush/fence counts" `Quick test_flush_counts;
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
