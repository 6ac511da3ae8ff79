(* Tests for Key, Vlock, Fingerprint and PDL-ART. *)

module Machine = Nvm.Machine
module Pool = Nvm.Pool
module Heap = Pmalloc.Heap
module Pptr = Pmalloc.Pptr
module Key = Pactree.Key
module Art = Pactree.Art

(* ---------- Key ---------- *)

let test_key_int_roundtrip () =
  List.iter
    (fun i -> Alcotest.(check int) "roundtrip" i (Key.to_int (Key.of_int i)))
    [ 0; 1; -1; 42; max_int; min_int; 123456789 ]

let test_key_int_order =
  QCheck.Test.make ~name:"key: int order preserved" ~count:2000
    QCheck.(pair int int)
    (fun (a, b) -> compare a b = compare (Key.of_int a) (Key.of_int b))

let test_key_string_validation () =
  Alcotest.check_raises "too long"
    (Invalid_argument "Key.of_string: length 33 > 32") (fun () ->
      ignore (Key.of_string (String.make 33 'x')));
  Alcotest.check_raises "nul byte" (Invalid_argument "Key.of_string: NUL byte in key")
    (fun () -> ignore (Key.of_string "a\000b"))

(* ---------- Vlock ---------- *)

let vlock_handle () =
  let m = Machine.create ~numa_count:1 () in
  let p = Pool.create m ~name:"lock" ~numa:0 ~capacity:4096 () in
  Pobj.make p 64

let test_vlock_basic () =
  let h = vlock_handle () in
  Pactree.Vlock.init h.pool h.off ~gen:1;
  let v = Pactree.Vlock.begin_read h.pool h.off ~gen:1 in
  Alcotest.(check bool) "even" false (Pactree.Vlock.is_locked v);
  Alcotest.(check bool) "validates" true (Pactree.Vlock.validate h.pool h.off ~gen:1 ~version:v);
  let wv = Pactree.Vlock.acquire h.pool h.off ~gen:1 in
  Alcotest.(check bool) "locked" true (Pactree.Vlock.is_locked wv);
  Alcotest.(check bool) "reader invalidated" false
    (Pactree.Vlock.validate h.pool h.off ~gen:1 ~version:v);
  Pactree.Vlock.release h.pool h.off ~gen:1 ~version:wv;
  let v2 = Pactree.Vlock.begin_read h.pool h.off ~gen:1 in
  (* versions move in steps of 4: bit 0 = locked, bit 1 = obsolete *)
  Alcotest.(check int) "version counter advanced" (v + 4) v2;
  Alcotest.(check bool) "not obsolete" false (Pactree.Vlock.is_obsolete v2)

let test_vlock_generation_reset () =
  let h = vlock_handle () in
  Pactree.Vlock.init h.pool h.off ~gen:1;
  let wv = Pactree.Vlock.acquire h.pool h.off ~gen:1 in
  Alcotest.(check bool) "locked in gen 1" true (Pactree.Vlock.is_locked wv);
  (* Simulates restart: generation bump voids the held lock. *)
  let v = Pactree.Vlock.read_version h.pool h.off ~gen:2 in
  Alcotest.(check int) "reset to 0" 0 v;
  Alcotest.(check bool) "unlocked" false (Pactree.Vlock.is_locked v)

let test_vlock_upgrade_race () =
  let h = vlock_handle () in
  Pactree.Vlock.init h.pool h.off ~gen:1;
  let v = Pactree.Vlock.begin_read h.pool h.off ~gen:1 in
  Alcotest.(check bool) "upgrade wins" true
    (Pactree.Vlock.try_upgrade h.pool h.off ~gen:1 ~version:v);
  Alcotest.(check bool) "second upgrade loses" false
    (Pactree.Vlock.try_upgrade h.pool h.off ~gen:1 ~version:v)

let test_vlock_obsolete () =
  let h = vlock_handle () in
  Pactree.Vlock.init h.pool h.off ~gen:1;
  let wv = Pactree.Vlock.acquire h.pool h.off ~gen:1 in
  Pactree.Vlock.release_obsolete h.pool h.off ~gen:1 ~version:wv;
  let v = Pactree.Vlock.read_version h.pool h.off ~gen:1 in
  Alcotest.(check bool) "obsolete" true (Pactree.Vlock.is_obsolete v);
  Alcotest.(check bool) "not locked" false (Pactree.Vlock.is_locked v);
  Alcotest.(check bool) "cannot relock" false
    (Pactree.Vlock.try_upgrade h.pool h.off ~gen:1 ~version:v)

let test_vlock_blocks_until_release () =
  let h = vlock_handle () in
  Pactree.Vlock.init h.pool h.off ~gen:1;
  let sched = Des.Sched.create () in
  let acquired_at = ref 0.0 in
  Des.Sched.spawn sched ~name:"holder" (fun () ->
      let wv = Pactree.Vlock.acquire h.pool h.off ~gen:1 in
      Des.Sched.delay 1e-6;
      Pactree.Vlock.release h.pool h.off ~gen:1 ~version:wv);
  Des.Sched.spawn sched ~name:"waiter" (fun () ->
      Des.Sched.delay 1e-9 (* let holder go first *);
      let wv = Pactree.Vlock.acquire h.pool h.off ~gen:1 in
      acquired_at := Des.Sched.now sched;
      Pactree.Vlock.release h.pool h.off ~gen:1 ~version:wv);
  Des.Sched.run sched;
  Alcotest.(check bool) "waited for release" true (!acquired_at >= 1e-6)

(* ---------- Fingerprint ---------- *)

let test_fingerprint_range () =
  for i = 0 to 999 do
    let fp = Pactree.Fingerprint.of_key (Key.of_int i) in
    Alcotest.(check bool) "in [1,255]" true (fp >= 1 && fp <= 255)
  done

let test_fingerprint_distribution () =
  let buckets = Array.make 256 0 in
  for i = 0 to 9999 do
    let fp = Pactree.Fingerprint.of_key (Key.of_int i) in
    buckets.(fp) <- buckets.(fp) + 1
  done;
  let used = Array.fold_left (fun acc c -> if c > 0 then acc + 1 else acc) 0 buckets in
  Alcotest.(check bool) (Printf.sprintf "spread over many values (%d)" used) true (used > 150)

(* ---------- ART ---------- *)

type art_ctx = {
  machine : Machine.t;
  art : Art.t;
  meta : Pool.t;
  heap : Heap.t;
  kv_heap : Heap.t;
  kv_keys : (int, string) Hashtbl.t; (* kv record off -> key *)
}

(* Open the trie on [meta], as [make_art] does and a restart does
   again. *)
let open_art machine ~heap ~meta kv_keys =
  let key_of_leaf ptr =
    match Hashtbl.find_opt kv_keys (Pptr.off ptr) with
    | Some k -> k
    | None ->
        (* read from the record itself: len byte + bytes *)
        let pool = Pptr.resolve machine ptr in
        let len = Pool.read_u8 pool (Pptr.off ptr) in
        Pool.read_string pool (Pptr.off ptr + 1) len
  in
  let epoch = Pactree.Epoch.create () in
  let compare_leaf ptr k = String.compare (key_of_leaf ptr) k in
  Art.create ~heap ~meta ~epoch ~key_of_leaf ~compare_leaf

(* Leaf payloads are tiny kv records; we keep their keys in a
   volatile mirror for key_of_leaf plus the record's key on NVM. *)
let make_art () =
  let machine = Machine.create ~numa_count:2 () in
  let heap =
    Heap.create machine ~kind:Heap.Pmdk ~name:"art" ~numa_pools:2 ~capacity:(1 lsl 22) ()
  in
  let kv_heap =
    Heap.create machine ~kind:Heap.Pmdk ~name:"kv" ~numa_pools:1 ~capacity:(1 lsl 22) ()
  in
  let meta = Pool.create machine ~name:"meta" ~numa:0 ~capacity:(Art.meta_size + 4096) () in
  let kv_keys = Hashtbl.create 1024 in
  { machine; art = open_art machine ~heap ~meta kv_keys; meta; heap; kv_heap; kv_keys }

(* A restart after a crash: both heaps' recovery, the trie reopened
   (a new generation and epoch) and its pending log replayed.  Returns
   the restarted context and the number of nodes the replay freed. *)
let restart ctx =
  Heap.recover ctx.heap;
  Heap.recover ctx.kv_heap;
  let art = open_art ctx.machine ~heap:ctx.heap ~meta:ctx.meta ctx.kv_keys in
  let freed = Art.recover art in
  ({ ctx with art }, freed)

let add_payload ctx k =
  let ptr = Heap.alloc ctx.kv_heap ~numa:0 64 in
  let pool = Pptr.resolve ctx.machine ptr in
  Pool.write_u8 pool (Pptr.off ptr) (String.length k);
  Pool.write_string pool (Pptr.off ptr + 1) k;
  Pool.persist pool (Pptr.off ptr) (1 + String.length k);
  Hashtbl.replace ctx.kv_keys (Pptr.off ptr) k;
  ptr

let insert_key ctx k =
  let p = add_payload ctx k in
  ignore (Art.insert ctx.art k p);
  p

(* The trie reads a key followed by a 0 terminator that it supplies: a
   key and its extensions are all found, in key order, and an int key
   (whose bytes hold zeros) next to the empty key. *)
let test_key_radix () =
  let ctx = make_art () in
  let keys = [ "ab"; "abc"; "a"; ""; "abd" ] in
  let ptrs = List.map (fun k -> (k, insert_key ctx k)) keys in
  List.iter
    (fun (k, p) ->
      Alcotest.(check bool) ("found " ^ k) true
        (match Art.lookup ctx.art k with Some q -> Pptr.equal p q | None -> false))
    ptrs;
  let le q =
    let p = Art.lookup_le ctx.art q in
    if Pptr.is_null p then None else Some (Hashtbl.find ctx.kv_keys (Pptr.off p))
  in
  Alcotest.(check (option string)) "le abb" (Some "ab") (le "abb");
  Alcotest.(check (option string)) "le abca" (Some "abc") (le "abca");
  Alcotest.(check (option string)) "le b" (Some "abd") (le "b");
  let ints = make_art () in
  ignore (insert_key ints "");
  let zero = insert_key ints (Key.of_int 0) in
  Alcotest.(check bool) "int key 0" true
    (match Art.lookup ints.art (Key.of_int 0) with Some q -> Pptr.equal zero q | None -> false);
  Alcotest.(check bool) "below int key 0" true
    (Hashtbl.find ints.kv_keys (Pptr.off (Art.lookup_le ints.art (Key.of_int (-1)))) = "")

let test_art_insert_lookup_small () =
  let ctx = make_art () in
  let keys = [ "a"; "ab"; "abc"; "b"; "ba"; "zzz"; "" ] in
  let ptrs = List.map (fun k -> (k, insert_key ctx k)) keys in
  List.iter
    (fun (k, p) ->
      match Art.lookup ctx.art k with
      | Some found -> Alcotest.(check bool) ("found " ^ k) true (Pptr.equal found p)
      | None -> Alcotest.failf "key %S not found" k)
    ptrs;
  Alcotest.(check (option int)) "missing key" None
    (Option.map Pptr.off (Art.lookup ctx.art "nope"));
  Alcotest.(check int) "cardinal" (List.length keys) (Art.cardinal ctx.art)

let test_art_insert_lookup_many_ints () =
  let ctx = make_art () in
  let n = 2000 in
  let ptrs = Array.init n (fun i -> insert_key ctx (Key.of_int (i * 7919))) in
  for i = 0 to n - 1 do
    match Art.lookup ctx.art (Key.of_int (i * 7919)) with
    | Some p -> Alcotest.(check bool) "ptr matches" true (Pptr.equal p ptrs.(i))
    | None -> Alcotest.failf "int key %d missing" (i * 7919)
  done;
  Alcotest.(check int) "cardinal" n (Art.cardinal ctx.art)

let test_art_duplicate_insert_replaces () =
  let ctx = make_art () in
  let k = Key.of_int 1 in
  let p1 = add_payload ctx k in
  let p2 = add_payload ctx k in
  Alcotest.(check bool) "first insert" true (Art.insert ctx.art k p1 = Art.Inserted);
  Alcotest.(check bool) "second replaces, returns old" true
    (match Art.insert ctx.art k p2 with
    | Art.Replaced old -> Pptr.equal old p1
    | Art.Inserted -> false);
  match Art.lookup ctx.art k with
  | Some p -> Alcotest.(check bool) "new payload" true (Pptr.equal p p2)
  | None -> Alcotest.fail "missing"

let test_art_delete () =
  let ctx = make_art () in
  let keys = List.init 300 (fun i -> Key.of_int i) in
  List.iter (fun k -> ignore (insert_key ctx k)) keys;
  (* delete the odd ones *)
  List.iteri
    (fun i k ->
      if i mod 2 = 1 then
        Alcotest.(check bool) "deleted" true (Art.delete ctx.art k <> None))
    keys;
  List.iteri
    (fun i k ->
      let found = Art.lookup ctx.art k <> None in
      Alcotest.(check bool) (Printf.sprintf "key %d presence" i) (i mod 2 = 0) found)
    keys;
  Alcotest.(check (option int)) "delete missing returns None" None
    (Option.map Pptr.off (Art.delete ctx.art (Key.of_int 100000)))

let test_art_delete_all_then_reinsert () =
  let ctx = make_art () in
  let keys = List.init 100 (fun i -> Key.of_int i) in
  List.iter (fun k -> ignore (insert_key ctx k)) keys;
  List.iter (fun k -> ignore (Art.delete ctx.art k)) keys;
  Alcotest.(check int) "empty" 0 (Art.cardinal ctx.art);
  List.iter (fun k -> ignore (insert_key ctx k)) keys;
  Alcotest.(check int) "reinserted" 100 (Art.cardinal ctx.art)

let test_art_lookup_le () =
  let ctx = make_art () in
  (* keys 0, 10, 20, ..., 990 *)
  let tbl = Hashtbl.create 64 in
  for i = 0 to 99 do
    let k = Key.of_int (i * 10) in
    Hashtbl.replace tbl (Pptr.off (insert_key ctx k)) (i * 10)
  done;
  let le q =
    let p = Art.lookup_le ctx.art (Key.of_int q) in
    if Pptr.is_null p then None else Some (Hashtbl.find tbl (Pptr.off p))
  in
  Alcotest.(check (option int)) "exact" (Some 500) (le 500);
  Alcotest.(check (option int)) "between" (Some 500) (le 509);
  Alcotest.(check (option int)) "above max" (Some 990) (le 5000);
  Alcotest.(check (option int)) "first" (Some 0) (le 0);
  Alcotest.(check (option int)) "below min" None (le (-1))

let test_art_lookup_le_strings () =
  let ctx = make_art () in
  let keys = [ ""; "apple"; "apply"; "banana"; "band"; "bandana"; "zoo" ] in
  List.iter (fun k -> ignore (insert_key ctx k)) keys;
  let le q expect =
    let p = Art.lookup_le ctx.art q in
    if Pptr.is_null p then Alcotest.(check (option string)) ("le " ^ q) expect None
    else begin
      Alcotest.(check (option string))
        ("le " ^ q) expect
        (Some (Hashtbl.find ctx.kv_keys (Pptr.off p)))
    end
  in
  le "apple" (Some "apple");
  le "applesauce" (Some "apple");
  le "apricot" (Some "apply");
  le "bandage" (Some "band");
  le "car" (Some "bandana");
  le "zzz" (Some "zoo");
  le "a" (Some "");
  le "" (Some "")

let test_art_iter_from () =
  let ctx = make_art () in
  let n = 500 in
  for i = 0 to n - 1 do
    ignore (insert_key ctx (Key.of_int (i * 3)))
  done;
  let collected = ref [] in
  Art.iter_from ctx.art (Key.of_int 600) (fun p ->
      collected := Key.to_int (Hashtbl.find ctx.kv_keys (Pptr.off p)) :: !collected;
      List.length !collected < 10);
  let got = List.rev !collected in
  Alcotest.(check (list int)) "ordered from 600"
    [ 600; 603; 606; 609; 612; 615; 618; 621; 624; 627 ]
    got

let test_art_iter_all_sorted () =
  let ctx = make_art () in
  let rng = Des.Rng.create ~seed:77L in
  let seen = Hashtbl.create 64 in
  for _ = 0 to 999 do
    let k = Des.Rng.int rng 100000 in
    if not (Hashtbl.mem seen k) then begin
      Hashtbl.add seen k ();
      ignore (insert_key ctx (Key.of_int k))
    end
  done;
  let collected = ref [] in
  Art.iter_from ctx.art (Key.of_int min_int) (fun p ->
      collected := Key.to_int (Hashtbl.find ctx.kv_keys (Pptr.off p)) :: !collected;
      true);
  let got = List.rev !collected in
  let expected = List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) seen []) in
  Alcotest.(check int) "count" (List.length expected) (List.length got);
  Alcotest.(check (list int)) "sorted enumeration" expected got

(* A full scan over the string keys [keys] whose callback, on the
   first leaf, inserts [inserted]: the keys it emits, in order. *)
let scan_inserting keys inserted =
  let ctx = make_art () in
  List.iter (fun k -> ignore (insert_key ctx k)) keys;
  let fired = ref false and got = ref [] in
  Art.iter_from ctx.art "" (fun p ->
      got := Hashtbl.find ctx.kv_keys (Pptr.off p) :: !got;
      if not !fired then begin
        fired := true;
        List.iter (fun k -> ignore (insert_key ctx k)) inserted
      end;
      true);
  List.rev !got

(* Emitted in strictly increasing order, every key of [keys] once. *)
let check_scan keys got =
  let rec increasing = function a :: (b :: _ as tl) -> a < b && increasing tl | _ -> true in
  Alcotest.(check bool) "strictly increasing" true (increasing got);
  List.iter
    (fun k ->
      let times = List.length (List.filter (String.equal k) got) in
      Alcotest.(check int) ("emitted once: " ^ k) 1 times)
    keys

(* The insert of b5 grows the b-node, a Node4 the scan has not reached
   yet, and bumps the version of the root it is walking. *)
let test_art_iter_insert_ahead () =
  let keys = [ "a1"; "a2"; "b1"; "b2"; "b3"; "b4" ] in
  check_scan keys (scan_inserting keys [ "b5" ])

(* The insert of e also grows the root, which retires the root the scan
   started from: the scan restarts from the new root and resumes after
   the last key it emitted. *)
let test_art_iter_root_retired () =
  let keys = [ "a1"; "a2"; "b1"; "b2"; "b3"; "b4"; "c"; "d" ] in
  check_scan keys (scan_inserting keys [ "b5"; "e" ])

(* Random inserts and deletes of [key k], [k <= bound], agree with a
   map model. *)
let art_model_test ~name ~bound key =
  QCheck.Test.make ~name ~count:30
    QCheck.(list (pair (int_bound bound) bool))
    (fun ops ->
      let ctx = make_art () in
      let model = Hashtbl.create 64 in
      List.iter
        (fun (k, ins) ->
          let key = key k in
          if ins then begin
            let p = add_payload ctx key in
            ignore (Art.insert ctx.art key p);
            Hashtbl.replace model k p
          end
          else begin
            let deleted = Art.delete ctx.art key <> None in
            let expected = Hashtbl.mem model k in
            Hashtbl.remove model k;
            if deleted <> expected then raise Exit
          end)
        ops;
      Hashtbl.iter
        (fun k p ->
          match Art.lookup ctx.art (key k) with
          | Some q when Pptr.equal p q -> ()
          | _ -> raise Exit)
        model;
      Art.cardinal ctx.art = Hashtbl.length model)

let test_art_qcheck_model =
  art_model_test ~name:"art: agrees with a map model (random ops)" ~bound:500 Key.of_int

(* Keys sharing a 20-byte prefix, longer than the 16 a node stores:
   the writers reconstruct it from a leaf and split it at positions of
   16 and more.  The hundreds digit puts 3 of the 21 keys in a small
   group, so the Node4 above the two groups, whose prefix is that long,
   is often left with one inner child and merged with it. *)
let test_art_qcheck_long_prefix =
  art_model_test ~name:"art: agrees with a map model (long-prefix string keys)" ~bound:20
    (fun k -> Key.of_string (Printf.sprintf "user%019d" ((if k mod 7 = 0 then 200 else 100) + k)))

let test_art_concurrent_inserts () =
  let ctx = make_art () in
  let sched = Des.Sched.create () in
  let threads = 8 and per = 200 in
  for t = 0 to threads - 1 do
    Des.Sched.spawn sched ~numa:(t mod 2) ~name:(Printf.sprintf "w%d" t) (fun () ->
        for i = 0 to per - 1 do
          ignore (insert_key ctx (Key.of_int ((i * threads) + t)))
        done)
  done;
  Des.Sched.run sched;
  Alcotest.(check int) "all inserted" (threads * per) (Art.cardinal ctx.art);
  for k = 0 to (threads * per) - 1 do
    if Art.lookup ctx.art (Key.of_int k) = None then
      Alcotest.failf "key %d lost" k
  done

let test_art_concurrent_mixed () =
  let ctx = make_art () in
  (* preload evens *)
  for i = 0 to 499 do
    ignore (insert_key ctx (Key.of_int (i * 2)))
  done;
  let sched = Des.Sched.create () in
  let lookup_failures = ref 0 in
  (* writers insert odds, readers look up evens (must always hit) *)
  for t = 0 to 3 do
    Des.Sched.spawn sched ~numa:(t mod 2) ~name:(Printf.sprintf "ins%d" t) (fun () ->
        let rec go i =
          if i < 125 then begin
            ignore (insert_key ctx (Key.of_int ((((t * 125) + i) * 2) + 1)));
            go (i + 1)
          end
        in
        go 0)
  done;
  for t = 0 to 3 do
    Des.Sched.spawn sched ~numa:(t mod 2) ~name:(Printf.sprintf "rd%d" t) (fun () ->
        let rng = Des.Rng.create ~seed:(Int64.of_int t) in
        for _ = 0 to 499 do
          let k = Des.Rng.int rng 500 * 2 in
          if Art.lookup ctx.art (Key.of_int k) = None then
            incr lookup_failures
        done)
  done;
  Des.Sched.run sched;
  Alcotest.(check int) "no reader ever missed a preloaded key" 0 !lookup_failures;
  Alcotest.(check int) "final cardinality" 1000 (Art.cardinal ctx.art)

(* A reader that read a node's pointer before a copy-on-write grow
   retired the node meets it obsolete: its header copy carries the
   obsolete bit, and the descent restarts instead of using the frozen
   node.  The race is forged: the root pointer is set back to the
   retired Node4 until a second thread restores it.  The retired node
   lacks the key the grow added, so a descent that used it would miss
   the key. *)
let test_art_obsolete_restarts () =
  let ctx = make_art () in
  (* a full Node4 at the root: four keys that differ in their first byte *)
  List.iter (fun k -> ignore (insert_key ctx k)) [ "a"; "b"; "c"; "d" ];
  let old_root = Pool.read_int ctx.meta Art.root_off in
  let p = insert_key ctx "e" (* grows the root into a Node16, retiring the Node4 *) in
  let new_root = Pool.read_int ctx.meta Art.root_off in
  Alcotest.(check bool) "the grow replaced the root" true (old_root <> new_root);
  Pool.write_int ctx.meta Art.root_off old_root;
  let restarts0 = (Art.stats ctx.art).Art.restarts in
  let got = ref None in
  let sched = Des.Sched.create () in
  Des.Sched.spawn sched ~name:"reader" (fun () ->
      got := Art.lookup ctx.art "e");
  Des.Sched.spawn sched ~name:"fixer" (fun () ->
      Des.Sched.delay 1e-6;
      Pool.write_int ctx.meta Art.root_off new_root);
  Des.Sched.run sched;
  Alcotest.(check bool) "the descent restarted" true
    ((Art.stats ctx.art).Art.restarts > restarts0);
  Alcotest.(check bool) "and found the key in the live root" true
    (match !got with Some q -> Pptr.equal q p | None -> false)

(* A Node48 whose count is one below its used slots — the state a
   crash between publishing a child and persisting the count used to
   leave — sends the next insert into its full slot array.  That is a
   bug, and it must raise, not restart forever with the node locked. *)
let test_art_node48_low_count () =
  let ctx = make_art () in
  (* 48 int keys differ only in their last byte: one Node48 root *)
  for i = 0 to 47 do
    ignore (insert_key ctx (Key.of_int i))
  done;
  let rp = Pool.read_int ctx.meta Art.root_off in
  let pool = Pptr.resolve ctx.machine rp and root = Pptr.off rp in
  (* header: lock word, type byte at 8, count (u16) at 10 *)
  Alcotest.(check int) "the root is a Node48" 2 (Pool.read_u8 pool (root + 8));
  Alcotest.(check int) "with 48 children" 48 (Pool.read_u16 pool (root + 10));
  Pool.write_u16 pool (root + 10) 47;
  let p = add_payload ctx (Key.of_int 48) in
  let raised = ref false in
  let sched = Des.Sched.create () in
  Des.Sched.spawn sched ~name:"writer" (fun () ->
      match Art.insert ctx.art (Key.of_int 48) p with
      | _ -> ()
      | exception Invalid_argument _ -> raised := true);
  Des.Sched.run sched;
  Alcotest.(check bool) "the insert raised" true !raised

let test_art_crash_recovery_persists_inserts () =
  let ctx = make_art () in
  let n = 300 in
  for i = 0 to n - 1 do
    ignore (insert_key ctx (Key.of_int i))
  done;
  Machine.crash ctx.machine Machine.Strict;
  let ctx, freed = restart ctx in
  Alcotest.(check bool) "freed >= 0" true (freed >= 0);
  for i = 0 to n - 1 do
    if Art.lookup ctx.art (Key.of_int i) = None then
      Alcotest.failf "key %d lost after crash" i
  done;
  (* the index still works after recovery *)
  ignore (insert_key ctx (Key.of_int 100000));
  Alcotest.(check bool) "post-recovery insert" true
    (Art.lookup ctx.art (Key.of_int 100000) <> None)

let test_art_crash_mid_run_flaky () =
  (* Flaky crash: every dirty line independently survives.  All
     acknowledged inserts must still be there (durable
     linearizability); the tree must stay well-formed. *)
  let ctx = make_art () in
  let n = 200 in
  for i = 0 to n - 1 do
    ignore (insert_key ctx (Key.of_int i))
  done;
  let rng = Des.Rng.create ~seed:123L in
  Machine.crash ctx.machine (Machine.Flaky (0.5, rng));
  let ctx, _ = restart ctx in
  for i = 0 to n - 1 do
    if Art.lookup ctx.art (Key.of_int i) = None then
      Alcotest.failf "acknowledged key %d lost after flaky crash" i
  done

let test_art_generation_bumps_on_recover () =
  let ctx = make_art () in
  let g0 = Art.generation ctx.art in
  Machine.crash ctx.machine Machine.Strict;
  let ctx, _ = restart ctx in
  Alcotest.(check bool) "generation increased" true (Art.generation ctx.art > g0)

(* ---------- read discipline ---------- *)

(* The lines a trie operation charges (CPU-cache hits + misses), taken
   the second time it runs, when every line hits.  The test trie's leaf
   checks read no line: a leaf's key comes from the volatile mirror. *)
let charged ctx f =
  f ();
  let reads () =
    let s = Machine.stats ctx.machine in
    s.Nvm.Stats.cache_hits + s.Nvm.Stats.cache_misses
  in
  let r0 = reads () in
  f ();
  reads () - r0

(* A trie whose root has the one-byte keys [keys] as leaves. *)
let root_of keys =
  let ctx = make_art () in
  List.iter (fun k -> ignore (insert_key ctx k)) keys;
  ctx

let byte_key b = String.make 1 (Char.chr b)

(* A lookup charges the root pointer's line, then, per node, the copy of
   its first line and the validation, plus one line for each field it
   needs past line 0: Node4 children 0-2, Node16 children 0-1, Node256
   children 0-3 and Node48 index bytes 0-31 come from the copy; a
   Node48's children always lie past it. *)
let test_art_visit_reads () =
  let lookup_reads ctx k =
    charged ctx (fun () -> ignore (Option.get (Art.lookup ctx.art k) : Pptr.t))
  in
  let check_reads what ctx k expected =
    Alcotest.(check int) (Printf.sprintf "%s, key byte %d" what (Char.code k.[0])) expected
      (lookup_reads ctx k)
  in
  let n4 = root_of [ "a"; "b"; "c"; "d" ] in
  List.iter (fun k -> check_reads "Node4, child 0-2" n4 k 3) [ "a"; "b"; "c" ];
  check_reads "Node4, child 3" n4 "d" 4;
  let n16 = root_of (List.init 16 (fun i -> byte_key (97 + i))) in
  List.iter (fun k -> check_reads "Node16, child 0-1" n16 k 3) [ "a"; "b" ];
  check_reads "Node16, child 2" n16 "c" 4;
  let n48 = root_of (List.init 48 (fun i -> byte_key (1 + (5 * i)))) in
  check_reads "Node48, index byte in line 0" n48 (byte_key 31) 4;
  check_reads "Node48, index byte past line 0" n48 (byte_key 36) 5;
  let n256 = root_of (List.init 60 (fun i -> byte_key (1 + i))) in
  check_reads "Node256, child 1-3" n256 (byte_key 3) 3;
  check_reads "Node256, child 4" n256 (byte_key 4) 4;
  (* two levels: 2 reads per Node4 *)
  let deep = root_of [ "aa"; "ab"; "b" ] in
  Alcotest.(check int) "two Node4s" 5 (lookup_reads deep "ab")

(* [lookup_le] takes the smaller child from the copy it validated when
   the equal child was a leaf greater than the key: no second
   validation.  After a descent into an inner child, whose visit reused
   the copy's region, it reads the node and validates it again. *)
let test_art_lookup_le_reads () =
  let le_reads ctx k = charged ctx (fun () -> ignore (Art.lookup_le ctx.art k : Pptr.t)) in
  let leaves = root_of [ "a"; "cb" ] in
  Alcotest.(check int) "equal leaf above the key, smaller child from the copy" 3
    (le_reads leaves "ca");
  Alcotest.(check int) "no equal child" 3 (le_reads leaves "b");
  let deep = root_of [ "a"; "cb"; "cc" ] in
  (* root copy + validation, inner Node4 copy + smaller-child search
     + validation, then the root's child 0 from the node + validation *)
  Alcotest.(check int) "after a descent, from the node" 7 (le_reads deep "ca")

let suite =
  [
    Alcotest.test_case "key: int roundtrip" `Quick test_key_int_roundtrip;
    QCheck_alcotest.to_alcotest test_key_int_order;
    Alcotest.test_case "key: validation" `Quick test_key_string_validation;
    Alcotest.test_case "key: radix encoding" `Quick test_key_radix;
    Alcotest.test_case "vlock: basic protocol" `Quick test_vlock_basic;
    Alcotest.test_case "vlock: generation reset (§5.7)" `Quick test_vlock_generation_reset;
    Alcotest.test_case "vlock: upgrade race" `Quick test_vlock_upgrade_race;
    Alcotest.test_case "vlock: obsolete marker" `Quick test_vlock_obsolete;
    Alcotest.test_case "vlock: blocks until release" `Quick test_vlock_blocks_until_release;
    Alcotest.test_case "fingerprint: range" `Quick test_fingerprint_range;
    Alcotest.test_case "fingerprint: distribution" `Quick test_fingerprint_distribution;
    Alcotest.test_case "art: small insert/lookup" `Quick test_art_insert_lookup_small;
    Alcotest.test_case "art: 2000 int keys" `Quick test_art_insert_lookup_many_ints;
    Alcotest.test_case "art: duplicate insert replaces" `Quick
      test_art_duplicate_insert_replaces;
    Alcotest.test_case "art: delete" `Quick test_art_delete;
    Alcotest.test_case "art: delete all, reinsert" `Quick test_art_delete_all_then_reinsert;
    Alcotest.test_case "art: lookup_le ints" `Quick test_art_lookup_le;
    Alcotest.test_case "art: lookup_le strings" `Quick test_art_lookup_le_strings;
    Alcotest.test_case "art: iter_from" `Quick test_art_iter_from;
    Alcotest.test_case "art: full sorted enumeration" `Quick test_art_iter_all_sorted;
    Alcotest.test_case "art: iter_from, insert ahead of the scan" `Quick
      test_art_iter_insert_ahead;
    Alcotest.test_case "art: iter_from, root retired under the scan" `Quick
      test_art_iter_root_retired;
    QCheck_alcotest.to_alcotest test_art_qcheck_model;
    QCheck_alcotest.to_alcotest test_art_qcheck_long_prefix;
    Alcotest.test_case "art: concurrent inserts" `Quick test_art_concurrent_inserts;
    Alcotest.test_case "art: concurrent mixed" `Quick test_art_concurrent_mixed;
    Alcotest.test_case "art: obsolete node restarts" `Quick test_art_obsolete_restarts;
    Alcotest.test_case "art: a low Node48 count raises, not spins" `Quick
      test_art_node48_low_count;
    Alcotest.test_case "art: crash + recovery (strict)" `Quick
      test_art_crash_recovery_persists_inserts;
    Alcotest.test_case "art: crash + recovery (flaky)" `Quick test_art_crash_mid_run_flaky;
    Alcotest.test_case "art: generation bump" `Quick test_art_generation_bumps_on_recover;
    Alcotest.test_case "art: a visit reads line 0 once" `Quick test_art_visit_reads;
    Alcotest.test_case "art: lookup_le validates a copy once" `Quick test_art_lookup_le_reads;
  ]
