(* Direct tests of the slotted data node (paper Fig 8, §5.5) and of
   the per-thread SMO log and epoch manager. *)

module Machine = Nvm.Machine
module Pool = Nvm.Pool
module Heap = Pmalloc.Heap
module Node = Pactree.Data_node
module Key = Pactree.Key
module Vlock = Pactree.Vlock

let gen = 1

let make_node ?(key_inline = 8) ?(persist_perm = false) () =
  let machine = Machine.create ~numa_count:1 () in
  let lay = Node.layout ~persist_perm ~key_inline () in
  let pool = Pool.create machine ~name:"node" ~numa:0 ~capacity:(1 lsl 16) () in
  let node = { Node.pool; off = 256 } in
  Node.init lay node ~gen ~anchor:"" ~next:Pmalloc.Pptr.null ~prev:Pmalloc.Pptr.null;
  (machine, lay, node)

let ik = Key.of_int

(* [Some (slot, value)] for a hit. *)
let find lay (node : Node.t) k =
  let slot = Node.find lay node.pool node.off k in
  if slot < 0 then None else Some (slot, Node.found_value ())

let test_insert_find () =
  let _, lay, node = make_node () in
  Alcotest.(check bool) "insert" true (Node.insert lay node.pool node.off (ik 5) 50 = Node.Ok);
  Alcotest.(check bool) "insert" true (Node.insert lay node.pool node.off (ik 9) 90 = Node.Ok);
  (match find lay node (ik 5) with
  | Some (_, v) -> Alcotest.(check int) "found value" 50 v
  | None -> Alcotest.fail "missing");
  Alcotest.(check bool) "absent" true (find lay node (ik 7) = None);
  Alcotest.(check int) "live count" 2 (Node.live_count node)

let test_node_fills_at_64 () =
  let _, lay, node = make_node () in
  for i = 0 to Node.entries - 1 do
    Alcotest.(check bool) (Printf.sprintf "insert %d" i) true
      (Node.insert lay node.pool node.off (ik i) i = Node.Ok)
  done;
  Alcotest.(check bool) "65th insert is Full" true
    (Node.insert lay node.pool node.off (ik 1000) 0 = Node.Full)

let test_delete_and_slot_reuse () =
  let _, lay, node = make_node () in
  for i = 0 to 63 do
    ignore (Node.insert lay node.pool node.off (ik i) i)
  done;
  Alcotest.(check bool) "delete" true (Node.delete lay node.pool node.off (ik 3) = Node.Ok);
  Alcotest.(check bool) "delete absent" true
    (Node.delete lay node.pool node.off (ik 3) = Node.Absent);
  Alcotest.(check bool) "slot freed, insert fits" true
    (Node.insert lay node.pool node.off (ik 1000) 1 = Node.Ok)

let test_update_out_of_place () =
  let _, lay, node = make_node () in
  ignore (Node.insert lay node.pool node.off (ik 1) 10);
  Alcotest.(check bool) "update" true (Node.update lay node.pool node.off (ik 1) 11 = Node.Ok);
  (match find lay node (ik 1) with
  | Some (_, v) -> Alcotest.(check int) "new value" 11 v
  | None -> Alcotest.fail "missing");
  Alcotest.(check int) "still one live entry" 1 (Node.live_count node);
  Alcotest.(check bool) "update absent" true
    (Node.update lay node.pool node.off (ik 2) 0 = Node.Absent)

let test_update_in_place_when_full () =
  let _, lay, node = make_node () in
  for i = 0 to 63 do
    ignore (Node.insert lay node.pool node.off (ik i) i)
  done;
  Alcotest.(check bool) "update works on full node" true
    (Node.update lay node.pool node.off (ik 7) 700 = Node.Ok);
  match find lay node (ik 7) with
  | Some (_, v) -> Alcotest.(check int) "updated" 700 v
  | None -> Alcotest.fail "missing"

let test_insert_crash_before_bitmap_invisible () =
  (* The bitmap is the linearization point: a crash after the kv
     persist but before the bitmap persist must hide the key. *)
  let machine, lay, node = make_node () in
  ignore (Node.insert lay node.pool node.off (ik 1) 10);
  (* hand-run the first half of the insert protocol for a second key *)
  Machine.crash machine Machine.Strict;
  (* key 1 was fully inserted pre-crash: bitmap persisted *)
  Alcotest.(check bool) "persisted key visible" true (find lay node (ik 1) <> None);
  Alcotest.(check int) "live count" 1 (Node.live_count node)

let test_scan_from_sorted () =
  let _, lay, node = make_node () in
  (* insert out of order *)
  List.iter (fun i -> ignore (Node.insert lay node.pool node.off (ik i) i)) [ 9; 3; 7; 1; 5 ];
  let acc = ref [] in
  ignore (Node.scan_from lay node ~gen (ik 3) ~f:(fun k v ->
      acc := (Key.to_int k, v) :: !acc;
      true));
  Alcotest.(check (list (pair int int))) "sorted from 3"
    [ (3, 3); (5, 5); (7, 7); (9, 9) ]
    (List.rev !acc)

let test_permutation_cache_invalidation () =
  let _, lay, node = make_node () in
  List.iter (fun i -> ignore (Node.insert lay node.pool node.off (ik i) i)) [ 2; 1 ];
  let scanned = ref 0 in
  ignore (Node.scan_from lay node ~gen (ik 0) ~f:(fun _ _ -> incr scanned; true));
  Alcotest.(check int) "first scan publishes the order" 2 !scanned;
  (* a write bumps the version; the permutation must rebuild *)
  let wv = Vlock.acquire node.pool node.off ~gen in
  ignore (Node.insert lay node.pool node.off (ik 0) 0);
  Vlock.release node.pool node.off ~gen ~version:wv;
  let acc = ref [] in
  ignore (Node.scan_from lay node ~gen (ik 0) ~f:(fun k _ ->
      acc := Key.to_int k :: !acc;
      true));
  Alcotest.(check (list int)) "rebuilt order" [ 0; 1; 2 ] (List.rev !acc)

let test_string_layout () =
  let _, lay, node = make_node ~key_inline:32 () in
  let keys = [ "alpha"; "beta"; "a-much-longer-key-string!"; "z" ] in
  List.iteri (fun i k -> ignore (Node.insert lay node.pool node.off (Key.of_string k) i)) keys;
  List.iteri
    (fun i k ->
      match find lay node (Key.of_string k) with
      | Some (_, v) -> Alcotest.(check int) k i v
      | None -> Alcotest.failf "missing %s" k)
    keys;
  let slots = Array.make Node.entries 0 in
  let n = Node.sort_live lay node slots in
  Alcotest.(check (list string)) "sorted"
    (List.sort compare keys)
    (List.init n (fun i -> Node.sorted_key lay slots.(i)))

(* The int layout sorts by word, not byte: its order must still be
   [Key.compare]'s, across the sign and for keys that differ only in
   their last byte. *)
let test_int_sort_order () =
  let rng = Random.State.make [| 7 |] in
  for round = 0 to 19 do
    let _, lay, node = make_node () in
    let base = Int64.to_int (Random.State.bits64 rng) in
    let fixed = [ min_int; max_int; 0; -1; 1; -256; -255; 255; 256; base; base lxor 1 ] in
    let keys = Hashtbl.create Node.entries in
    let add i = if Hashtbl.length keys < Node.entries then Hashtbl.replace keys (ik i) () in
    List.iter add fixed;
    while Hashtbl.length keys < Node.entries do
      match Random.State.int rng 3 with
      | 0 -> add (Int64.to_int (Random.State.bits64 rng))
      | 1 -> add (base lxor Random.State.int rng 256)
      | _ -> add (Random.State.int rng 512 - 256)
    done;
    Hashtbl.iter (fun k () -> ignore (Node.insert lay node.pool node.off k 0)) keys;
    let slots = Array.make Node.entries 0 in
    let n = Node.sort_live lay node slots in
    Alcotest.(check (list string))
      (Printf.sprintf "round %d" round)
      (List.sort Key.compare (List.of_seq (Hashtbl.to_seq_keys keys)))
      (List.init n (fun i -> Node.sorted_key lay slots.(i)))
  done

(* [Node.sort_live] against a reference [List.sort Key.compare] of the
   keys a node holds, over random contents: int keys (some pairs equal
   but for their lowest bit, which the int layout's sort breaks ties
   on) and string keys (shared prefixes, lengths 0 to [Key.max_len]),
   with 0, 1, 63 and 64 live slots, scattered over the node by deletes. *)
let test_sort_matches_reference () =
  let rng = Random.State.make [| 37 |] in
  (* 40 bases, either sign, each with its lowest bit either way *)
  let bases = Array.init 40 (fun _ -> Int64.to_int (Random.State.bits64 rng)) in
  let int_key () =
    ik (bases.(Random.State.int rng (Array.length bases)) lxor Random.State.int rng 2)
  in
  let prefixes = [| ""; "a"; "user"; "user0000"; "user00001234"; "zz" |] in
  let string_key () =
    let p = prefixes.(Random.State.int rng (Array.length prefixes)) in
    let n = Random.State.int rng (Key.max_len - String.length p + 1) in
    Key.of_string (p ^ String.init n (fun _ -> Char.chr (Char.code '0' + Random.State.int rng 3)))
  in
  List.iter
    (fun (key_inline, random_key) ->
      List.iter
        (fun live ->
          for round = 0 to 9 do
            let _, lay, node = make_node ~key_inline () in
            let keys = Hashtbl.create Node.entries in
            while Hashtbl.length keys < Node.entries do
              Hashtbl.replace keys (random_key ()) ()
            done;
            let all = List.of_seq (Hashtbl.to_seq_keys keys) in
            List.iteri (fun i k -> ignore (Node.insert lay node.pool node.off k i)) all;
            (* delete random keys until [live] are left *)
            let kept = ref all in
            while List.length !kept > live do
              let k = List.nth !kept (Random.State.int rng (List.length !kept)) in
              ignore (Node.delete lay node.pool node.off k);
              kept := List.filter (fun k' -> k' <> k) !kept
            done;
            let slots = Array.make Node.entries (-1) in
            let n = Node.sort_live lay node slots in
            let what = Printf.sprintf "key_inline %d, %d live, round %d" key_inline live round in
            Alcotest.(check (list string))
              what (List.sort Key.compare !kept)
              (List.init n (fun i -> Node.sorted_key lay slots.(i)));
            let distinct = List.sort_uniq compare (Array.to_list (Array.sub slots 0 n)) in
            Alcotest.(check int) (what ^ ": distinct slots") n (List.length distinct)
          done)
        [ 0; 1; 63; 64 ])
    [ (8, int_key); (Key.max_len, string_key) ]

let test_anchor_compare () =
  let machine = Machine.create ~numa_count:1 () in
  let lay = Node.layout ~key_inline:32 () in
  let pool = Pool.create machine ~name:"anchor" ~numa:0 ~capacity:(1 lsl 16) () in
  let node = { Node.pool; off = 256 } in
  Node.init lay node ~gen ~anchor:"mmm" ~next:Pmalloc.Pptr.null ~prev:Pmalloc.Pptr.null;
  Alcotest.(check string) "anchor" "mmm" (Node.anchor node);
  Alcotest.(check bool) "less" true (Node.compare_anchor pool 256 "zzz" < 0);
  Alcotest.(check bool) "greater" true (Node.compare_anchor pool 256 "aaa" > 0);
  Alcotest.(check int) "equal" 0 (Node.compare_anchor pool 256 "mmm")

(* The anchor's length is stored beside its bytes, so comparing or
   reading an anchor charges one line, that of a longest anchor
   included; a comparison leaves a visit's copy of lines 0-1 and its
   probed entry as they were. *)
let test_anchor_one_line () =
  let machine = Machine.create ~numa_count:1 () in
  let lay = Node.layout ~key_inline:Key.max_len () in
  let pool = Pool.create machine ~name:"anchor" ~numa:0 ~capacity:(1 lsl 16) () in
  let reads f =
    let s = Machine.stats machine in
    let r0 = s.cache_hits + s.cache_misses in
    f ();
    s.cache_hits + s.cache_misses - r0
  in
  List.iteri
    (fun i anchor ->
      let node = { Node.pool; off = 256 + (i * 4096) } in
      Node.init lay node ~gen ~anchor ~next:Pmalloc.Pptr.null ~prev:Pmalloc.Pptr.null;
      ignore (Node.insert lay pool node.off "k" 7);
      ignore (Node.begin_read pool node.off ~gen : int);
      let copy = Bytes.sub (Des.Sched.scratch ()) 0 128 in
      Alcotest.(check bool) "probe hit" true (Node.probe lay pool node.off "k" >= 0);
      Alcotest.(check int) "compare_anchor: one line" 1
        (reads (fun () -> ignore (Node.compare_anchor pool node.off "k" : int)));
      Alcotest.(check int) "the visit's value" 7 (Node.found_value ());
      Alcotest.(check bool) "the visit's copy" true
        (Bytes.equal copy (Bytes.sub (Des.Sched.scratch ()) 0 128));
      Alcotest.(check int) "anchor: one line" 1
        (reads (fun () -> Alcotest.(check string) "anchor" anchor (Node.anchor node))))
    [ ""; "mmm"; String.make Key.max_len 'z' ]

let test_qcheck_node_model =
  QCheck.Test.make ~name:"data node: agrees with a map model" ~count:100
    QCheck.(list (pair (int_bound 100) (int_bound 3)))
    (fun ops ->
      let _, lay, node = make_node () in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (k, op) ->
          let key = ik k in
          match op with
          | 0 | 1 ->
              if Hashtbl.mem model k then begin
                ignore (Node.update lay node.pool node.off key (k * 2));
                Hashtbl.replace model k (k * 2)
              end
              else if Node.insert lay node.pool node.off key k = Node.Ok then
                Hashtbl.replace model k k
          | 2 ->
              ignore (Node.delete lay node.pool node.off key);
              Hashtbl.remove model k
          | _ -> ())
        ops;
      Hashtbl.fold
        (fun k v ok ->
          ok
          && match find lay node (ik k) with Some (_, v') -> v' = v | None -> false)
        model
        (Node.live_count node = Hashtbl.length model))

(* ---------- SMO log ---------- *)

let make_log () =
  let machine = Machine.create ~numa_count:2 () in
  let pools =
    Array.init 2 (fun i ->
        Pool.create machine
          ~name:(Printf.sprintf "log%d" i)
          ~numa:i
          ~capacity:Pactree.Smo_log.region_size ())
  in
  (machine, Pactree.Smo_log.create pools ~base:0)

let test_smo_log_roundtrip () =
  let _, log = make_log () in
  let e =
    Pactree.Smo_log.append log ~ts:7
      (Pactree.Smo_log.Split { left = Pmalloc.Pptr.make ~pool:3 ~off:512; anchor = "ab" })
  in
  (match Pactree.Smo_log.read e with
  | Some (7, Pactree.Smo_log.Split { left; anchor }) ->
      Alcotest.(check int) "left off" 512 (Pmalloc.Pptr.off left);
      Alcotest.(check string) "anchor" "ab" anchor
  | _ -> Alcotest.fail "bad decode");
  Alcotest.(check int) "active" 1 (Pactree.Smo_log.active_count log);
  Pactree.Smo_log.clear log e;
  Alcotest.(check int) "cleared" 0 (Pactree.Smo_log.active_count log);
  Alcotest.(check bool) "read after clear" true (Pactree.Smo_log.read e = None)

let test_smo_log_merge_entry () =
  let _, log = make_log () in
  let left = Pmalloc.Pptr.make ~pool:1 ~off:256 in
  let right = Pmalloc.Pptr.make ~pool:1 ~off:1024 in
  let e = Pactree.Smo_log.append log ~ts:9 (Pactree.Smo_log.Merge { left; right; anchor = "k" }) in
  (match Pactree.Smo_log.read e with
  | Some (9, Pactree.Smo_log.Merge m) ->
      Alcotest.(check bool) "left" true (Pmalloc.Pptr.equal m.left left);
      Alcotest.(check bool) "right" true (Pmalloc.Pptr.equal m.right right)
  | _ -> Alcotest.fail "bad decode");
  Alcotest.(check bool) "aux = right" true (Pmalloc.Pptr.equal (Pactree.Smo_log.aux e) right)

let test_smo_log_survives_crash () =
  let machine, log = make_log () in
  let e =
    Pactree.Smo_log.append log ~ts:1
      (Pactree.Smo_log.Split { left = Pmalloc.Pptr.make ~pool:2 ~off:256; anchor = "x" })
  in
  ignore e;
  Machine.crash machine Machine.Strict;
  Alcotest.(check int) "entry survives crash" 1 (Pactree.Smo_log.active_count log)

let test_smo_log_iter_active () =
  let _, log = make_log () in
  for i = 1 to 5 do
    ignore
      (Pactree.Smo_log.append log ~ts:i
         (Pactree.Smo_log.Split { left = Pmalloc.Pptr.make ~pool:2 ~off:(i * 256); anchor = "k" }))
  done;
  let seen = ref [] in
  Pactree.Smo_log.iter_active log ~f:(fun e ->
      match Pactree.Smo_log.read e with
      | Some (ts, _) -> seen := ts :: !seen
      | None -> ());
  Alcotest.(check (list int)) "all entries" [ 1; 2; 3; 4; 5 ] (List.sort compare !seen)

(* ---------- epochs ---------- *)

let test_epoch_two_epoch_rule () =
  let e = Pactree.Epoch.create () in
  let sched = Des.Sched.create () in
  let freed = ref false in
  Des.Sched.spawn sched ~name:"t" (fun () ->
      Pactree.Epoch.enter e;
      Pactree.Epoch.defer e (fun () -> freed := true);
      (* while the deferring operation is still active, at most one
         epoch can pass — the action must not run *)
      Pactree.Epoch.try_advance e;
      Pactree.Epoch.try_advance e;
      Pactree.Epoch.try_advance e;
      Alcotest.(check bool) "not freed while op active" false !freed;
      Pactree.Epoch.exit e;
      Pactree.Epoch.try_advance e;
      Pactree.Epoch.try_advance e;
      Alcotest.(check bool) "freed after exit + two advances" true !freed);
  Des.Sched.run sched

let test_epoch_blocked_by_active_reader () =
  let e = Pactree.Epoch.create () in
  let sched = Des.Sched.create () in
  let freed = ref false in
  Des.Sched.spawn sched ~name:"reader" (fun () ->
      Pactree.Epoch.enter e;
      Des.Sched.delay 1.0;
      Pactree.Epoch.exit e);
  Des.Sched.spawn sched ~name:"writer" (fun () ->
      Des.Sched.delay 0.1;
      Pactree.Epoch.enter e;
      Pactree.Epoch.defer e (fun () -> freed := true);
      Pactree.Epoch.exit e;
      (* reader still active in an old epoch: cannot free yet *)
      Pactree.Epoch.try_advance e;
      Pactree.Epoch.try_advance e;
      Alcotest.(check bool) "blocked by reader" false !freed;
      Alcotest.(check int) "held back by the reader" 0 (Pactree.Epoch.holder e));
  Des.Sched.run sched;
  Pactree.Epoch.try_advance e;
  Pactree.Epoch.try_advance e;
  Alcotest.(check bool) "freed after reader exits" true !freed

(* ---------- stalls ---------- *)

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

(* Run [sched], which must stall: [who] has waited on [what] for more
   than W, and the report comes within one capped [backoff] pause (plus
   the microsecond of NVM reads around it) of W after [began], the
   time the wait began.  [others] must appear in the report too. *)
let expect_stall sched ~who ~what ~began ~backoff ?(others = []) () =
  match Des.Sched.run sched with
  | () -> Alcotest.fail "no stall reported"
  | exception Des.Sched.Stalled report ->
      List.iter
        (fun s -> if not (contains report s) then Alcotest.failf "%S not in:\n%s" s report)
        (Printf.sprintf ": %s (thread " who :: (" s on " ^ what ^ ";") :: others);
      let late = Des.Sched.now sched -. !began -. Des.Sched.stall_after in
      if late <= 0.0 || late > backoff +. 1e-6 then
        Alcotest.failf "reported %.3g s after W (one pause: %.3g s)" late backoff

(* A thread that holds a lock and then reads its node waits on itself
   (the self-wait of an early Node4 merge, which used to hang). *)
let test_stall_self_wait () =
  let _, _, node = make_node () in
  let sched = Des.Sched.create () in
  let began = ref 0.0 in
  Des.Sched.spawn sched ~name:"merger" (fun () ->
      ignore (Vlock.acquire node.pool node.off ~gen);
      began := Des.Sched.now sched;
      ignore (Vlock.begin_read_snapshot node.pool node.off ~gen (Des.Sched.scratch ()) 0 16));
  expect_stall sched ~who:"merger" ~began ~backoff:(40e-9 *. 2048.0)
    ~what:(Printf.sprintf "vlock read %d" node.off) ()

(* A writer fills its SMO ring and no updater drains it. *)
let test_stall_full_ring () =
  let _, log = make_log () in
  let sched = Des.Sched.create () in
  let began = ref 0.0 in
  Des.Sched.spawn sched ~name:"writer" (fun () ->
      for i = 1 to 64 do
        ignore
          (Pactree.Smo_log.append log ~ts:i
             (Pactree.Smo_log.Split { left = Pmalloc.Pptr.make ~pool:2 ~off:256; anchor = "k" }))
      done;
      began := Des.Sched.now sched;
      Pactree.Smo_log.reserve log (Pactree.Epoch.create ()));
  expect_stall sched ~who:"writer" ~began ~backoff:(500e-9 *. 512.0)
    ~what:"smo ring of thread 0" ()

(* Two threads take two locks in opposite orders. *)
let test_stall_lock_order () =
  let _, lay, a = make_node () in
  let b = { a with Node.off = 4096 } in
  Node.init lay b ~gen ~anchor:"" ~next:Pmalloc.Pptr.null ~prev:Pmalloc.Pptr.null;
  let sched = Des.Sched.create () in
  let began = ref 0.0 in
  let take (first : Node.t) (second : Node.t) =
    ignore (Vlock.acquire first.pool first.off ~gen);
    Des.Sched.delay 1e-6;
    if first == a then began := Des.Sched.now sched;
    ignore (Vlock.acquire second.pool second.off ~gen)
  in
  Des.Sched.spawn sched ~name:"ab" (fun () -> take a b);
  Des.Sched.spawn sched ~name:"ba" (fun () -> take b a);
  let on (n : Node.t) = Printf.sprintf "vlock acquire %d" n.off in
  expect_stall sched ~who:"ab" ~began ~backoff:(40e-9 *. 2048.0) ~what:(on b)
    ~others:[ "ba (thread 1): " ^ on a ] ()

let test_epoch_reentrancy () =
  let e = Pactree.Epoch.create () in
  Pactree.Epoch.enter e;
  Pactree.Epoch.enter e;
  Pactree.Epoch.exit e;
  Pactree.Epoch.exit e;
  Alcotest.(check int) "no pending" 0 (Pactree.Epoch.pending e)

let test_epoch_unpin_while () =
  let e = Pactree.Epoch.create () in
  let sched = Des.Sched.create () in
  Des.Sched.spawn sched ~name:"t" (fun () ->
      Pactree.Epoch.enter e;
      let before = Pactree.Epoch.current e in
      Pactree.Epoch.unpin_while e (fun () ->
          Pactree.Epoch.try_advance e;
          Pactree.Epoch.try_advance e);
      Alcotest.(check bool) "advanced past our pin" true
        (Pactree.Epoch.current e >= before + 2);
      Pactree.Epoch.exit e);
  Des.Sched.run sched

(* A read-only visit as PACTree's lookup makes it: one copy of lines
   0-1, the probe, one validation. *)
let visit lay node k =
  let rec go () =
    let v = Node.begin_read node.Node.pool node.off ~gen in
    let slot = Node.probe lay node.pool node.off k in
    let value = if slot < 0 then None else Some (Node.found_value ()) in
    if Vlock.validate node.pool node.off ~gen ~version:v then value else go ()
  in
  go ()

(* A writer holds the lock across a state no reader may see: the key
   deleted, then re-inserted with a new value.  A reader whose copy
   catches the held lock word backs off and returns the value after
   the release, never the torn "absent" nor the old value. *)
let test_visit_waits_for_writer () =
  let _, lay, node = make_node () in
  for i = 0 to 9 do
    ignore (Node.insert lay node.pool node.off (ik i) (i * 10))
  done;
  let sched = Des.Sched.create () in
  let got = ref None and spun = ref 0 in
  Des.Sched.spawn sched ~name:"writer" (fun () ->
      let wv = Vlock.acquire node.pool node.off ~gen in
      ignore (Node.delete lay node.pool node.off (ik 5));
      Des.Sched.delay 1e-6;
      ignore (Node.insert lay node.pool node.off (ik 5) 55);
      Vlock.release node.pool node.off ~gen ~version:wv);
  Des.Sched.spawn sched ~name:"reader" (fun () ->
      Des.Sched.delay 1e-7 (* the writer holds the lock by now *);
      let waits0 = Des.Sched.waits () in
      got := visit lay node (ik 5);
      spun := Des.Sched.waits () - waits0);
  Des.Sched.run sched;
  Alcotest.(check bool) "the reader's copy caught the held lock" true (!spun > 0);
  Alcotest.(check (option int)) "post-release value" (Some 55) !got;
  Alcotest.(check (option int)) "other keys unaffected" (Some 30) (visit lay node (ik 3))

(* The probe compares each candidate's key in the copied entry, past
   the copied bitmap and fingerprints: with 64 live slots, every key
   of both layouts is found with its own value. *)
let test_probe_full_node () =
  List.iter
    (fun key_inline ->
      let _, lay, node = make_node ~key_inline () in
      let key i = if key_inline = 8 then ik i else Printf.sprintf "user%019d" (i * 7919) in
      for i = 0 to Node.entries - 1 do
        ignore (Node.insert lay node.pool node.off (key i) i)
      done;
      for i = 0 to Node.entries - 1 do
        Alcotest.(check (option int)) "value" (Some i) (visit lay node (key i))
      done;
      Alcotest.(check (option int)) "absent" None (visit lay node (key Node.entries)))
    [ 8; Key.max_len ]

(* Byte offsets of the bitmap, of slot [slot]'s fingerprint (line 1
   for slots 0-55, the last word of line 0 for 56-63), of the
   permutation stamp and of slot 0's entry in a node (the 256-byte
   header). *)
let bitmap_at = 64

let fingerprint_at slot = if slot < 56 then 72 + slot else slot

let stamp_at = 32

let entries_at = 256

(* Drop [slot] from the node's bitmap. *)
let clear_slot (node : Node.t) slot =
  Pool.write_int64 node.pool (node.off + bitmap_at)
    (Int64.logand (Node.bitmap node) (Int64.lognot (Int64.shift_left 1L slot)))

(* The probe as it was before the word-at-a-time match: slot by slot,
   the first live one whose fingerprint is [k]'s and whose entry, read
   from the node with one read, holds [k].  [bitmap] and [fps] are the
   node's, read beforehand. *)
let reference_probe lay (node : Node.t) bitmap fps k =
  let fp = Pactree.Fingerprint.of_key k in
  let len = if lay.Node.inline = 8 then 16 else 9 + lay.inline in
  let entry = Bytes.create len in
  let holds slot =
    Pool.blit_to_bytes node.pool (node.off + entries_at + (slot * lay.stride)) entry 0 len;
    if lay.inline = 8 then Bytes.sub_string entry 8 8 = k
    else
      let klen = Bytes.get_uint8 entry 8 in
      klen = String.length k && Bytes.sub_string entry 9 klen = k
  in
  let rec go slot =
    if slot >= Node.entries then None
    else if
      Int64.logand bitmap (Int64.shift_left 1L slot) <> 0L
      && Bytes.get_uint8 fps slot = fp
      && holds slot
    then Some (slot, Int64.to_int (Bytes.get_int64_le entry 0))
    else go (slot + 1)
  in
  go 0

(* Random node states against the reference: empty, full and partly
   filled nodes of both layouts; the probed key live, deleted (a dead
   slot with its fingerprint) or absent; fingerprint bytes overwritten
   with the key's own (live slots sharing it), its neighbours, 0x00,
   0x01, 0x7F, 0x80, 0xFF or noise; slots killed at random.  The probe
   must return the reference's slot and value and charge the same line
   reads (CPU-cache hits plus misses). *)
let test_probe_matches_reference () =
  let seed = Des.Rng.env_seed ~default:2026L in
  let rng = Random.State.make [| Int64.to_int seed |] in
  List.iter
    (fun key_inline ->
      for round = 0 to 299 do
        let machine, lay, node = make_node ~key_inline () in
        let key i =
          if key_inline = 8 then ik i
          else String.sub (Printf.sprintf "key-%d-%s" i (String.make 32 'x')) 0 (5 + (i mod 20))
        in
        let n =
          match round mod 4 with
          | 0 -> 0
          | 1 -> Node.entries
          | _ -> Random.State.int rng (Node.entries + 1)
        in
        let ids = Array.init 200 Fun.id in
        for i = 199 downto 1 do
          let j = Random.State.int rng (i + 1) in
          let t = ids.(i) in
          ids.(i) <- ids.(j);
          ids.(j) <- t
        done;
        for i = 0 to n - 1 do
          ignore (Node.insert lay node.pool node.off (key ids.(i)) ids.(i))
        done;
        let k = key ids.(Random.State.int rng (min 200 (n + 8))) in
        let fp = Pactree.Fingerprint.of_key k in
        let slot_of k = Node.find lay node.pool node.off k in
        if Random.State.int rng 3 = 0 && slot_of k >= 0 then
          clear_slot node (slot_of k);
        for _ = 1 to Random.State.int rng 24 do
          let slot = Random.State.int rng Node.entries in
          let byte =
            match Random.State.int rng 9 with
            | 0 | 1 -> fp
            | 2 -> fp - 1
            | 3 -> fp + 1
            | 4 -> 0x00
            | 5 -> 0x01
            | 6 -> 0x7F
            | 7 -> 0x80
            | _ -> Random.State.int rng 256
          in
          Pool.write_u8 node.pool (node.off + fingerprint_at slot) (byte land 0xFF)
        done;
        for _ = 1 to Random.State.int rng 4 do
          clear_slot node (Random.State.int rng Node.entries)
        done;
        if Random.State.bool rng then begin
          let slot = Random.State.int rng Node.entries in
          Pool.write_u8 node.pool (node.off + fingerprint_at slot) 0xFF
        end;
        let bitmap = Node.bitmap node in
        let fps =
          Bytes.init Node.entries (fun slot ->
              Char.chr (Pool.read_u8 node.pool (node.off + fingerprint_at slot)))
        in
        let reads () =
          let s = Machine.stats machine in
          s.cache_hits + s.cache_misses
        in
        let what = Printf.sprintf "layout %d, round %d, seed %Ld" key_inline round seed in
        ignore (Node.begin_read node.pool node.off ~gen : int);
        let r0 = reads () in
        let slot = Node.probe lay node.pool node.off k in
        let got = if slot < 0 then None else Some (slot, Node.found_value ()) in
        let r1 = reads () in
        let expected = reference_probe lay node bitmap fps k in
        let r2 = reads () in
        Alcotest.(check (option (pair int int))) (what ^ ": slot and value") expected got;
        Alcotest.(check int) (what ^ ": line reads") (r2 - r1) (r1 - r0)
      done)
    [ 8; Key.max_len ]

(* ---------- line-once split helpers, merge fences, garbage memory ---------- *)

let stats machine = Nvm.Stats.snapshot (Machine.stats machine)

let line_reads (d : Nvm.Stats.t) = d.cache_hits + d.cache_misses

(* Read the live entries of [node] sorted, for comparisons. *)
let sorted_entries lay node = List.sort compare (Node.live_entries lay node)

(* A node at [off] of [pool] whose memory holds 0xFF bytes first. *)
let garbage_node lay pool off =
  Pool.fill_stale pool off lay.Node.node_size '\xff';
  { Node.pool; off }

(* A sort reads the bitmap and each line of a full node's entry region
   once; [init_moved] writes line 0 with the fingerprint line, the
   anchor and the entries once each over memory that holds garbage,
   with non-temporal stores that access no line, and flushes the
   header's XPLine and the entries;
   the fresh node holds exactly the moved pairs and the pending one. *)
let test_split_helpers_line_once () =
  List.iter
    (fun key_inline ->
      let machine, lay, src = make_node ~key_inline () in
      let key i = if key_inline = 8 then ik i else Key.of_string (Printf.sprintf "k%05d" i) in
      for i = 0 to Node.entries - 1 do
        ignore (Node.insert lay src.pool src.off (key (i * 7 mod 64)) i)
      done;
      let slots = Array.make Node.entries 0 in
      let s0 = stats machine in
      let n = Node.sort_live lay src slots in
      let region_lines = Node.entries * lay.Node.stride / 64 in
      Alcotest.(check int) "sort: bitmap + each entry line once" (1 + region_lines)
        (line_reads (Nvm.Stats.diff (stats machine) s0));
      let dst = garbage_node lay src.pool 8192 in
      let half = n / 2 in
      let moved = n - half in
      let s0 = stats machine in
      Node.init_moved lay dst ~gen ~anchor:(Node.sorted_key lay slots.(half))
        ~next:Pmalloc.Pptr.null ~prev:Pmalloc.Pptr.null ~pending:(key 1000, 1000) slots ~pos:half
        ~len:moved;
      let d = Nvm.Stats.diff (stats machine) s0 in
      let entry_lines = (((moved + 1) * lay.stride) + 63) / 64 in
      Alcotest.(check int) "build: no line accessed" 0 (line_reads d);
      Alcotest.(check int) "build: header XPLine + entries flushed" (4 + entry_lines) d.flushes;
      Alcotest.(check int) "build: no fence" 0 d.fences;
      let moved_pairs =
        List.filter (fun (k, _) -> Key.compare k (Node.anchor dst) >= 0) (sorted_entries lay src)
      in
      let expected = List.sort compare ((key 1000, 1000) :: moved_pairs) in
      Alcotest.(check int) "moved + pending" (moved + 1) (Node.live_count dst);
      Alcotest.(check bool) "pairs" true (sorted_entries lay dst = expected);
      List.iter
        (fun (k, v) ->
          match find lay dst k with
          | Some (_, v') -> Alcotest.(check int) "found" v v'
          | None -> Alcotest.fail "moved key not found")
        expected;
      Alcotest.(check bool) "not deleted" false (Node.is_deleted dst))
    [ 8; Key.max_len ]

(* A merge fences twice, whatever it moves: the entries, then line 1
   with their fingerprints (slots below 56) and the bitmap.  Each
   destination line is flushed once, after its last store, so a crash
   keeps every absorbed pair. *)
let test_absorb_fences () =
  let machine, lay, dst = make_node () in
  let src = { dst with Node.off = 8192 } in
  Node.init lay src ~gen ~anchor:(ik 100) ~next:Pmalloc.Pptr.null ~prev:Pmalloc.Pptr.null;
  for i = 0 to 9 do
    ignore (Node.insert lay dst.pool dst.off (ik i) i)
  done;
  for i = 0 to 19 do
    ignore (Node.insert lay src.pool src.off (ik (100 + i)) i)
  done;
  let s0 = stats machine in
  Node.absorb lay ~src ~dst;
  let d = Nvm.Stats.diff (stats machine) s0 in
  Alcotest.(check int) "fences" 2 d.fences;
  (* slots 10..29: entry bytes 160..479, lines 2..7 of the region *)
  Alcotest.(check int) "flushes: 6 entry lines, then line 1" 7 d.flushes;
  Alcotest.(check int) "no flush redundant" 0 d.flushes_elided;
  (* what the two fences made durable is all of it *)
  Machine.crash machine Machine.Strict;
  Alcotest.(check int) "all live after a crash" 30 (Node.live_count dst);
  for i = 0 to 19 do
    match find lay dst (ik (100 + i)) with
    | Some (_, v) -> Alcotest.(check int) "absorbed" i v
    | None -> Alcotest.failf "key %d not absorbed" (100 + i)
  done

(* A write commits in line 1, apart from the lock's line 0: an insert
   into slot [s] below 56 flushes its entry line, fences, then flushes
   line 1 and fences, and the release that follows and the next copy
   of line 0 hit the CPU cache.  From slot 56 on the fingerprint lies
   in line 0, which is flushed with the entry, so the insert flushes
   three lines and the release misses.  An empty node fills its slots
   in order. *)
let test_commit_line () =
  let machine, lay, node = make_node () in
  let pool = node.pool and off = node.off in
  for s = 0 to Node.entries - 1 do
    let what = Printf.sprintf "slot %d" s in
    let wv = Vlock.acquire pool off ~gen in
    let s0 = stats machine in
    Alcotest.(check bool) (what ^ ": inserted") true (Node.insert lay pool off (ik s) s = Node.Ok);
    let d = Nvm.Stats.diff (stats machine) s0 in
    let s1 = stats machine in
    Vlock.release pool off ~gen ~version:wv;
    Node.read_header pool off;
    let r = Nvm.Stats.diff (stats machine) s1 in
    Alcotest.(check int) (what ^ ": fences") 2 d.fences;
    Alcotest.(check int) (what ^ ": flushes") (if s < 56 then 2 else 3) d.flushes;
    Alcotest.(check int) (what ^ ": release and line 0 hits") (if s < 56 then 2 else 1)
      r.cache_hits;
    Alcotest.(check int) (what ^ ": release misses") (if s < 56 then 0 else 1) r.cache_misses
  done;
  Machine.crash machine Machine.Strict;
  for s = 0 to Node.entries - 1 do
    Alcotest.(check (option (pair int int))) "durable" (Some (s, s)) (find lay node (ik s))
  done

(* An insert into slot 33 stores its pair with a non-temporal store:
   it accesses line 1 three times (the bitmap it reads, the fingerprint
   and the bitmap it stores) and never the entry line, whose last store
   (slot 32's) flushed it out of the CPU cache; so no store misses.  A
   store + clwb of the pair charged a fourth access, a read for
   ownership.  It still flushes the entry line and line 1 under two
   fences. *)
let test_insert_slot_33 () =
  let machine, lay, node = make_node () in
  for s = 0 to 32 do
    ignore (Node.insert lay node.pool node.off (ik s) s)
  done;
  let s0 = stats machine in
  Alcotest.(check bool) "inserted" true (Node.insert lay node.pool node.off (ik 33) 33 = Node.Ok);
  let d = Nvm.Stats.diff (stats machine) s0 in
  Alcotest.(check int) "line accesses" 3 (line_reads d);
  Alcotest.(check int) "no store misses" 0 d.store_misses;
  Alcotest.(check int) "flushes" 2 d.flushes;
  Alcotest.(check int) "fences" 2 d.fences;
  Alcotest.(check (option (pair int int))) "found in slot 33" (Some (33, 33)) (find lay node (ik 33))

(* A commit's clwb evicts line 1 and its prefetch fetches it back: an
   insert into slot 10 still flushes two lines under two fences, and
   prefetches line 1 once.  The next writer's [find_locked] copy of
   line 1 (of a key absent from the node, so that no entry is read) is
   then a CPU-cache hit: late if it comes at once, a plain hit once
   the line has landed. *)
let test_commit_prefetch () =
  List.iter
    (fun wait ->
      let machine, lay, node = make_node () in
      let pool = node.pool and off = node.off in
      let d, r =
        let sched = Des.Sched.create () in
        let result = ref None in
        Des.Sched.spawn sched ~name:"writer" (fun () ->
            for s = 0 to 9 do
              ignore (Node.insert lay pool off (ik s) s)
            done;
            let s0 = stats machine in
            Alcotest.(check bool) "inserted" true (Node.insert lay pool off (ik 10) 10 = Node.Ok);
            let d = Nvm.Stats.diff (stats machine) s0 in
            Des.Sched.delay wait;
            let s1 = stats machine in
            Alcotest.(check int) "absent" (-1) (Node.find_locked lay pool off (ik 1000));
            result := Some (d, Nvm.Stats.diff (stats machine) s1));
        Des.Sched.run sched;
        Option.get !result
      in
      let what = if wait > 0.0 then "landed: " else "at once: " in
      Alcotest.(check int) (what ^ "flushes") 2 d.flushes;
      Alcotest.(check int) (what ^ "fences") 2 d.fences;
      Alcotest.(check int) (what ^ "one prefetch") 1 d.sw_prefetches;
      Alcotest.(check int) (what ^ "line 1 read once") 1 (line_reads r);
      Alcotest.(check int) (what ^ "a hit") 1 r.cache_hits;
      Alcotest.(check int) (what ^ "late") (if wait > 0.0 then 0 else 1) r.late_hits)
    [ 0.0; 1e-6 ]

(* A sort of a full int-key node, with a cold CPU cache and device
   buffers (after a crash), prefetches its 16 entry lines (4 XPLines) in
   two windows of at most [Nvm.Config.fill_buffers] lines, so it takes
   at most one XPLine fetch per window besides the bitmap's: within
   that bound plus the charged hits, and a prefetch's cost per line.
   Reading the lines one miss after another takes at least four XPLine
   fetches, which exceeds the bound. *)
let test_sort_overlaps_fetches () =
  let machine, lay, node = make_node () in
  for s = 0 to Node.entries - 1 do
    ignore (Node.insert lay node.pool node.off (ik s) s)
  done;
  Machine.crash machine Machine.Strict;
  let fetch = Nvm.Config.read_latency +. (256.0 *. Nvm.Config.read_byte_cost) in
  let lines = Node.entries * 16 / 64 in
  let bound = (3.0 *. fetch) +. (float_of_int ((2 * lines) + 1) *. Nvm.Config.cache_hit_cost) in
  let windows = (lines + Nvm.Config.fill_buffers - 1) / Nvm.Config.fill_buffers in
  Alcotest.(check int) "two windows" 2 windows;
  Alcotest.(check bool) "the serial read exceeds the bound" true (4.0 *. fetch > bound);
  let sched = Des.Sched.create () in
  let result = ref None in
  Des.Sched.spawn sched ~name:"sorter" (fun () ->
      let slots = Array.make Node.entries 0 in
      let t0 = Des.Sched.now sched in
      let n = Node.sort_live lay node slots in
      Des.Sched.delay 0.0;
      result := Some (n, Des.Sched.now sched -. t0));
  Des.Sched.run sched;
  let n, took = Option.get !result in
  Alcotest.(check int) "all pairs sorted" Node.entries n;
  if took > bound then
    Alcotest.failf "sort_live of a full node took %.1f ns, bound %.1f ns" (took *. 1e9)
      (bound *. 1e9)

(* A scan over a fresh permutation array takes the number of pairs from
   the count beside the stamp: it reads line 0's lock word, stamp and
   count, then each pair's array byte, key (compared, then copied) and
   value, and never line 1, which a clwb has evicted here, so nothing
   misses. *)
let test_scan_fresh_reads_no_bitmap () =
  let machine, lay, node = make_node () in
  List.iter (fun i -> ignore (Node.insert lay node.pool node.off (ik i) i)) [ 5; 1; 4; 2; 3 ];
  let scan () =
    let acc = ref [] in
    ignore
      (Node.scan_from lay node ~gen (ik 0) ~f:(fun k _ ->
           acc := Key.to_int k :: !acc;
           true));
    List.rev !acc
  in
  Alcotest.(check (list int)) "the first scan publishes the order" [ 1; 2; 3; 4; 5 ] (scan ());
  Pool.clwb node.pool (node.off + bitmap_at);
  Pool.fence node.pool;
  let s0 = stats machine in
  Alcotest.(check (list int)) "the second scan" [ 1; 2; 3; 4; 5 ] (scan ());
  let d = Nvm.Stats.diff (stats machine) s0 in
  Alcotest.(check int) "line reads" (3 + (4 * 5)) (line_reads d);
  Alcotest.(check int) "no miss: line 1 is not read" 0 d.cache_misses

(* [init] over memory that holds 0xFF bytes: the node is empty, its
   permutation stamp matches no lock word until a scan publishes the
   order, and inserts, finds and scans work, with the permutation
   persisted or not. *)
let test_init_over_garbage () =
  List.iter
    (fun persist_perm ->
      let machine = Machine.create ~numa_count:1 () in
      let lay = Node.layout ~persist_perm ~key_inline:8 () in
      let pool = Pool.create machine ~name:"node" ~numa:0 ~capacity:(1 lsl 16) () in
      let node = garbage_node lay pool 256 in
      Node.init lay node ~gen ~anchor:"" ~next:Pmalloc.Pptr.null ~prev:Pmalloc.Pptr.null;
      Alcotest.(check int) "empty" 0 (Node.live_count node);
      Alcotest.(check bool) "not deleted" false (Node.is_deleted node);
      Alcotest.(check bool) "miss" true (find lay node (ik 3) = None);
      let stamp () = Pool.read_int pool (node.off + stamp_at)
      and word () = Pool.read_int pool node.off in
      Alcotest.(check bool) "stamp matches no lock word" true (stamp () <> word ());
      List.iter (fun i -> ignore (Node.insert lay pool node.off (ik i) i)) [ 5; 1; 3 ];
      let acc = ref [] in
      ignore
        (Node.scan_from lay node ~gen (ik 0) ~f:(fun k _ ->
             acc := Key.to_int k :: !acc;
             true));
      Alcotest.(check (list int)) "scan" [ 1; 3; 5 ] (List.rev !acc);
      Alcotest.(check int) "a scan publishes the order" (word ()) (stamp ()))
    [ false; true ]

let suite =
  [
    Alcotest.test_case "node: insert/find" `Quick test_insert_find;
    Alcotest.test_case "node: visit waits for a writer" `Quick test_visit_waits_for_writer;
    Alcotest.test_case "node: probe of a full node" `Quick test_probe_full_node;
    Alcotest.test_case "node: probe matches a per-slot reference" `Quick
      test_probe_matches_reference;
    Alcotest.test_case "node: fills at 64" `Quick test_node_fills_at_64;
    Alcotest.test_case "node: delete + slot reuse" `Quick test_delete_and_slot_reuse;
    Alcotest.test_case "node: update out-of-place" `Quick test_update_out_of_place;
    Alcotest.test_case "node: update in-place when full" `Quick
      test_update_in_place_when_full;
    Alcotest.test_case "node: bitmap is linearization point" `Quick
      test_insert_crash_before_bitmap_invisible;
    Alcotest.test_case "node: scan_from sorted" `Quick test_scan_from_sorted;
    Alcotest.test_case "node: permutation invalidation" `Quick
      test_permutation_cache_invalidation;
    Alcotest.test_case "node: string layout" `Quick test_string_layout;
    Alcotest.test_case "node: int sort order" `Quick test_int_sort_order;
    Alcotest.test_case "node: sort matches a reference sort" `Quick test_sort_matches_reference;
    Alcotest.test_case "node: anchor compare" `Quick test_anchor_compare;
    Alcotest.test_case "node: an anchor is one line" `Quick test_anchor_one_line;
    Alcotest.test_case "node: split helpers read and write each line once" `Quick
      test_split_helpers_line_once;
    Alcotest.test_case "node: a merge fences twice" `Quick test_absorb_fences;
    Alcotest.test_case "node: a write commits in line 1" `Quick test_commit_line;
    Alcotest.test_case "node: an insert reads no entry line" `Quick test_insert_slot_33;
    Alcotest.test_case "node: a commit prefetches line 1" `Quick test_commit_prefetch;
    Alcotest.test_case "node: a sort overlaps its entry-line fetches" `Quick
      test_sort_overlaps_fetches;
    Alcotest.test_case "node: a fresh scan reads no bitmap" `Quick
      test_scan_fresh_reads_no_bitmap;
    Alcotest.test_case "node: init over garbage" `Quick test_init_over_garbage;
    QCheck_alcotest.to_alcotest test_qcheck_node_model;
    Alcotest.test_case "smo log: roundtrip" `Quick test_smo_log_roundtrip;
    Alcotest.test_case "smo log: merge entry" `Quick test_smo_log_merge_entry;
    Alcotest.test_case "smo log: survives crash" `Quick test_smo_log_survives_crash;
    Alcotest.test_case "smo log: iter_active" `Quick test_smo_log_iter_active;
    Alcotest.test_case "epoch: two-epoch rule" `Quick test_epoch_two_epoch_rule;
    Alcotest.test_case "epoch: blocked by active reader" `Quick
      test_epoch_blocked_by_active_reader;
    Alcotest.test_case "epoch: reentrancy" `Quick test_epoch_reentrancy;
    Alcotest.test_case "stall: a lock holder reads its own node" `Quick test_stall_self_wait;
    Alcotest.test_case "stall: a full SMO ring, no updater" `Quick test_stall_full_ring;
    Alcotest.test_case "stall: two locks in opposite orders" `Quick test_stall_lock_order;
    Alcotest.test_case "epoch: unpin_while" `Quick test_epoch_unpin_while;
  ]
