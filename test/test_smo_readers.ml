(* Readers against structural modifications, on every benchmarked
   system: even keys are preloaded, then writers insert the odd keys
   (splits) and delete them again (merges, where the index merges)
   while readers look up and scan from even keys.  No even key is ever
   written after the preload, so:
   - every lookup of an even key hits, with its value;
   - every scan from an even key starts at that key, is strictly
     increasing, and holds every even key up to its last key (and to
     the largest even key, if it returned fewer records than asked).

   The readers' keys come from the seed; [PACTREE_SEED] replaces the
   default, and a failure prints the seed and the first bad result. *)

module Key = Pactree.Key
module Index = Baselines.Index_intf
module Factory = Experiments.Factory

let seed = Des.Rng.env_seed ~default:0L

let evens = 1500

let writers = 4

(* how often each writer inserts its odd keys and deletes them again *)
let rounds = 2

let readers = 8

let scan_len = 8

(* Readers pick even keys near the writers' front, at the nodes that
   are splitting or merging: even readers within 32 keys of it, odd ones
   within 256 (which also keeps them at the last node, where a split
   runs between a scan's locate and its read most often). *)
let near r = if r land 1 = 0 then 32 else 256

let max_even = 2 * (evens - 1)

(* The first thing wrong with a scan from [k], if any. *)
let scan_fault k got =
  let keys = List.map (fun (k, _) -> Key.to_int k) got in
  let rec walk = function
    | a :: (b :: _ as tl) ->
        let next_even = if a land 1 = 0 then a + 2 else a + 1 in
        if b <= a then Some "not strictly increasing"
        else if b > next_even then Some "skips an even key"
        else walk tl
    | [ last ] ->
        if List.length keys < scan_len && last < max_even then Some "ends before the last key"
        else None
    | [] -> Some "empty"
  in
  match keys with
  | first :: _ when first <> k -> Some "does not start at its key"
  | _ -> walk keys

let run sys =
  let machine = Nvm.Machine.create ~numa_count:2 () in
  let b = Factory.make_backend machine sys in
  let index = b.Baselines.System.b_index in
  let sched = Des.Sched.create () in
  let fault = ref None in
  let report what =
    if !fault = None then
      fault :=
        Some (Printf.sprintf "%s: %s (seed %Ld, PACTREE_SEED replays)" (Factory.name sys) what seed)
  in
  let writing = ref writers in
  (* the key writer 0 wrote last *)
  let front = ref 0 in
  let live = ref (writers + readers) in
  let finished () =
    decr live;
    if !live = 0 then Option.iter (fun s -> s.Baselines.System.shutdown ()) b.b_service
  in
  let writer w () =
    let odd i = (2 * ((i * writers) + w)) + 1 in
    let n = evens / writers in
    for _ = 1 to rounds do
      for i = 0 to n - 1 do
        Index.insert index (Key.of_int (odd i)) i;
        if w = 0 then front := odd i
      done;
      for i = 0 to n - 1 do
        ignore (Index.delete index (Key.of_int (odd i)) : bool);
        if w = 0 then front := odd i
      done
    done;
    decr writing;
    finished ()
  in
  let reader r () =
    let rng = Des.Rng.create ~seed:(Int64.add seed (Int64.of_int r)) in
    let i = ref 0 in
    while !writing > 0 do
      let k = (!front / 2) + Des.Rng.int rng (2 * near r) - near r in
      let k = 2 * max 0 (min (evens - 1) k) in
      (if !i land 1 = 0 then begin
         match Index.lookup index (Key.of_int k) with
         | Some v when v = k -> ()
         | got ->
             report
               (Printf.sprintf "lookup %d returned %s" k
                  (match got with None -> "None" | Some v -> string_of_int v))
       end
       else
         let got = Index.scan index (Key.of_int k) scan_len in
         match scan_fault k got with
         | None -> ()
         | Some why ->
             report
               (Printf.sprintf "scan from %d %s: [%s]" k why
                  (String.concat " " (List.map (fun (k, _) -> string_of_int (Key.to_int k)) got))));
      (* land the op's charges, so the writers' clock moves on *)
      Des.Sched.delay 0.0;
      incr i
    done;
    finished ()
  in
  Option.iter
    (fun s -> Des.Sched.spawn sched ~name:"service" s.Baselines.System.body)
    b.b_service;
  Des.Sched.spawn sched ~name:"loader" (fun () ->
      for i = 0 to evens - 1 do
        Index.insert index (Key.of_int (2 * i)) (2 * i)
      done;
      for w = 0 to writers - 1 do
        Des.Sched.spawn sched ~numa:(w mod 2) ~name:(Printf.sprintf "writer%d" w) (writer w)
      done;
      for r = 0 to readers - 1 do
        Des.Sched.spawn sched ~numa:(r mod 2) ~name:(Printf.sprintf "reader%d" r) (reader r)
      done);
  Des.Sched.run sched;
  Option.iter Alcotest.fail !fault

let suite =
  List.map
    (fun sys ->
      Alcotest.test_case
        (Printf.sprintf "%s: readers vs splits and merges" (Factory.id sys))
        `Quick
        (fun () -> run sys))
    Factory.all
