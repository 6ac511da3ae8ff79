(* A PACTree lookup that hits takes the value it found without checking
   the node's key range (§5.3).  These tests write the keys the readers
   look up, so a hit on a node that no longer owns its key would read
   an old value:
   - a race: writers keep raising the values of the tracked keys (the
     multiples of [spread]) while other writers insert and delete the
     keys between them (splits, and merges once the nodes hold only
     tracked keys; their search-layer updates lag, so readers come in
     through stale jump nodes); a lookup must never return a value
     older than the last one acknowledged before it began;
   - a fixed case: a lookup whose jump node has been merged away (the
     search layer still names it) must return the absorbing node's
     current value, not the copy the deleted node still holds.

   The race runs [runs] times, at seeds [seed], [seed + 1000], ...; its
   key choices come from the seed.  [PACTREE_SEED] replaces the default
   first seed, and a failure prints the run's seed (which, given as
   [PACTREE_SEED], replays that run first) and the first bad result. *)

module Key = Pactree.Key
module Tree = Pactree.Tree

let seed = Des.Rng.env_seed ~default:0L

let cfg =
  { Tree.default_config with Tree.data_capacity = 1 lsl 22; search_capacity = 1 lsl 21 }

(* tracked key [i] is [spread * i]; the keys between are fillers *)
let tracked = 1000

let spread = 8

let fillers = tracked * (spread - 1)

let filler f = (spread * (f / (spread - 1))) + 1 + (f mod (spread - 1))

(* the fillers' inserting and deleting writers *)
let smo_writers = 4

let rounds = 4

(* each value writer owns the tracked keys [i] with [i mod value_writers]
   equal to its number, so each key's values only rise *)
let value_writers = 2

let readers = 8

(* Value writers and readers pick keys within [near] tracked keys of
   the front, where the nodes split and merge. *)
let near = 16

(* A value writer pauses between its writes: a writer that locks the
   same node again at once leaves readers no unlocked moment. *)
let pause = 200e-9

let runs = 3

let race seed =
  let machine = Nvm.Machine.create ~numa_count:2 () in
  let tree = Tree.create machine ~cfg () in
  let sched = Des.Sched.create () in
  (* per tracked key: the last value written and the last one
     acknowledged *)
  let issued = Array.make tracked 0 and acked = Array.make tracked 0 in
  let fault = ref None in
  let report what =
    if !fault = None then
      fault := Some (Printf.sprintf "%s (seed %Ld, PACTREE_SEED replays)" what seed)
  in
  let writing = ref smo_writers in
  let front = ref 0 in
  let live = ref (smo_writers + value_writers + readers) in
  let finished () =
    decr live;
    if !live = 0 then Tree.request_shutdown tree
  in
  let near_front rng =
    let i = (!front / spread) + Des.Rng.int rng (2 * near) - near in
    max 0 (min (tracked - 1) i)
  in
  let smo_writer w () =
    let key i = filler ((i * smo_writers) + w) in
    let n = fillers / smo_writers in
    for _ = 1 to rounds do
      for i = 0 to n - 1 do
        Tree.insert tree (Key.of_int (key i)) 0;
        if w = 0 then front := key i
      done;
      for i = 0 to n - 1 do
        ignore (Tree.delete tree (Key.of_int (key i)) : bool);
        if w = 0 then front := key i
      done
    done;
    decr writing;
    finished ()
  in
  (* Raise a key's value by an insert over it or by an update, in
     turn. *)
  let value_writer u () =
    let rng = Des.Rng.create ~seed:(Int64.add seed (Int64.of_int (100 + u))) in
    while !writing > 0 do
      let i = near_front rng in
      let i = i - (i mod value_writers) + u in
      if i < tracked then begin
        let v = issued.(i) + 1 in
        issued.(i) <- v;
        let k = Key.of_int (spread * i) in
        if v land 1 = 0 then Tree.insert tree k v
        else if not (Tree.update tree k v) then
          report (Printf.sprintf "update %d missed" (spread * i));
        acked.(i) <- v
      end;
      Des.Sched.delay pause
    done;
    finished ()
  in
  let reader r () =
    let rng = Des.Rng.create ~seed:(Int64.add seed (Int64.of_int r)) in
    while !writing > 0 do
      let i = near_front rng in
      let floor = acked.(i) in
      (match Tree.lookup tree (Key.of_int (spread * i)) with
      | Some v when v >= floor && v <= issued.(i) -> ()
      | got ->
          report
            (Printf.sprintf "lookup %d returned %s; acknowledged before it: %d, written: %d"
               (spread * i)
               (match got with None -> "None" | Some v -> string_of_int v)
               floor issued.(i)));
      Des.Sched.delay 0.0
    done;
    finished ()
  in
  Des.Sched.spawn sched ~name:"updater" (fun () -> Tree.updater_loop tree);
  Des.Sched.spawn sched ~name:"loader" (fun () ->
      for i = 0 to tracked - 1 do
        Tree.insert tree (Key.of_int (spread * i)) 0
      done;
      for w = 0 to smo_writers - 1 do
        Des.Sched.spawn sched ~numa:(w mod 2) ~name:(Printf.sprintf "smo%d" w) (smo_writer w)
      done;
      for u = 0 to value_writers - 1 do
        Des.Sched.spawn sched ~numa:(u mod 2) ~name:(Printf.sprintf "values%d" u) (value_writer u)
      done;
      for r = 0 to readers - 1 do
        Des.Sched.spawn sched ~numa:(r mod 2) ~name:(Printf.sprintf "reader%d" r) (reader r)
      done);
  Des.Sched.run sched;
  Option.iter Alcotest.fail !fault;
  let s = Tree.stats tree in
  if s.Tree.splits = 0 || s.Tree.merges = 0 then
    Alcotest.failf "no SMO raced the readers: %d splits, %d merges" s.Tree.splits s.Tree.merges

let test_race () =
  for r = 0 to runs - 1 do
    race (Int64.add seed (Int64.of_int (1000 * r)))
  done

(* Sequential inserts of 0..199 leave nodes of 32 keys: A = [0, 32),
   B = [32, 64), C = [64, 96), ...  With the updater stopped, deleting
   0..27 and then 32..48 merges B (15 keys left) into A (4 keys), and
   the search layer still maps B's anchor 32 to B, which is marked
   deleted but keeps its slots.  A lookup of 60 jumps to B. *)
let test_merged_jump_node () =
  let machine = Nvm.Machine.create ~numa_count:1 () in
  let tree = Tree.create machine ~cfg () in
  let sched = Des.Sched.create () in
  let result = ref (Error "did not run") in
  Des.Sched.spawn sched ~name:"updater" (fun () -> Tree.updater_loop tree);
  Des.Sched.spawn sched ~name:"client" (fun () ->
      for i = 0 to 199 do
        Tree.insert tree (Key.of_int i) i
      done;
      (* the updater brings the search layer up to date, then stops *)
      Des.Sched.delay 1e-3;
      Tree.request_shutdown tree;
      Des.Sched.delay 1e-3;
      for i = 0 to 27 do
        ignore (Tree.delete tree (Key.of_int i) : bool)
      done;
      for i = 32 to 48 do
        ignore (Tree.delete tree (Key.of_int i) : bool)
      done;
      let merges = (Tree.stats tree).Tree.merges and backlog = Tree.smo_backlog tree in
      Tree.insert tree (Key.of_int 60) 6000;
      let updated = Tree.update tree (Key.of_int 61) 6100 in
      result :=
        Ok
          ( merges,
            backlog,
            updated,
            List.map (fun k -> Tree.lookup tree (Key.of_int k)) [ 60; 61; 62; 40 ] ));
  Des.Sched.run sched;
  match !result with
  | Error e -> Alcotest.fail e
  | Ok (merges, backlog, updated, got) ->
      Alcotest.(check int) "one merge" 1 merges;
      Alcotest.(check bool) "the merge is not in the search layer yet" true (backlog > 0);
      Alcotest.(check bool) "update of 61" true updated;
      Alcotest.(check (list (option int)))
        "lookups through the merged node"
        [ Some 6000; Some 6100; Some 62; None ]
        got

let suite =
  [
    Alcotest.test_case "pactree: lookups vs value writers and SMOs" `Quick test_race;
    Alcotest.test_case "pactree: lookup through a merged jump node" `Quick test_merged_jump_node;
  ]
