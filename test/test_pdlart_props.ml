(* Property suite for PDL-ART's ordered-search primitives: lookup_le
   (the anchor-routing predecessor query PACTree's search layer leans
   on) and ordered iteration, both checked against a sorted-map oracle
   over random key sets with interleaved deletes. *)

module Machine = Nvm.Machine
module Pool = Nvm.Pool
module Heap = Pmalloc.Heap
module Pptr = Pmalloc.Pptr
module Key = Pactree.Key
module Art = Pactree.Art

module Imap = Map.Make (Int)
module Smap = Map.Make (String)

type ctx = { art : Art.t; kv_heap : Heap.t; kv_keys : (int, string) Hashtbl.t }

let make_art () =
  let machine = Machine.create ~numa_count:1 () in
  let heap =
    Heap.create machine ~kind:Heap.Pmdk ~name:"art" ~numa_pools:1 ~capacity:(1 lsl 22) ()
  in
  let kv_heap =
    Heap.create machine ~kind:Heap.Pmdk ~name:"kv" ~numa_pools:1 ~capacity:(1 lsl 22) ()
  in
  let meta = Pool.create machine ~name:"meta" ~numa:0 ~capacity:(Art.meta_size + 4096) () in
  let kv_keys = Hashtbl.create 256 in
  let key_of_leaf ptr =
    match Hashtbl.find_opt kv_keys (Pptr.off ptr) with
    | Some k -> k
    | None -> Alcotest.fail "unknown leaf payload"
  in
  let epoch = Pactree.Epoch.create () in
  let compare_leaf ptr k = String.compare (key_of_leaf ptr) k in
  let art = Art.create ~heap ~meta ~epoch ~key_of_leaf ~compare_leaf in
  { art; kv_heap; kv_keys }

let insert_key ctx k =
  let key = Key.of_int k in
  let ptr = Heap.alloc ctx.kv_heap ~numa:0 64 in
  Hashtbl.replace ctx.kv_keys (Pptr.off ptr) key;
  ignore (Art.insert ctx.art key ptr : Art.insert_outcome);
  ptr

let key_of ctx p = Key.to_int (Hashtbl.find ctx.kv_keys (Pptr.off p))

(* Replay random (key, insert?) ops against both the trie and an int
   map; return the context and the surviving model. *)
let build ops =
  let ctx = make_art () in
  let model =
    List.fold_left
      (fun model (k, ins) ->
        if ins then Imap.add k (insert_key ctx k) model
        else begin
          ignore (Art.delete ctx.art (Key.of_int k));
          Imap.remove k model
        end)
      Imap.empty ops
  in
  (ctx, model)

let ops_gen = QCheck.(list_of_size Gen.(int_range 1 120) (pair (int_bound 400) bool))

(* lookup_le = the model's floor query, at every interesting probe
   point: each live key, its two neighbours, and the extremes. *)
let test_lookup_le_floor =
  QCheck.Test.make ~name:"pdlart: lookup_le agrees with map floor" ~count:60 ops_gen
    (fun ops ->
      let ctx, model = build ops in
      let probes =
        0 :: 401
        :: Imap.fold (fun k _ acc -> (k - 1) :: k :: (k + 1) :: acc) model []
      in
      List.for_all
        (fun q ->
          if q < 0 then true
          else
            let expect = Option.map fst (Imap.find_last_opt (fun k -> k <= q) model) in
            let p = Art.lookup_le ctx.art (Key.of_int q) in
            let got = if Pptr.is_null p then None else Some (key_of ctx p) in
            got = expect)
        probes)

(* Ordered iteration from an arbitrary start key yields exactly the
   model's sorted tail. *)
let test_iter_sorted_tail =
  QCheck.Test.make ~name:"pdlart: iteration is the sorted tail" ~count:60
    QCheck.(pair ops_gen (int_bound 400))
    (fun (ops, start) ->
      let ctx, model = build ops in
      let collected = ref [] in
      Art.iter_from ctx.art (Key.of_int start) (fun p ->
          collected := key_of ctx p :: !collected;
          true);
      let got = List.rev !collected in
      let expect =
        Imap.fold (fun k _ acc -> if k >= start then k :: acc else acc) model []
        |> List.rev
      in
      got = expect)

(* ---------- plain keys: the trie supplies the terminator ---------- *)

(* The trie reads each key followed by a 0 terminator that it supplies
   itself, so keys go in as they are.  Three key families, each
   prefix-free once terminated, are drawn by index: int keys with the
   empty key (int keys hold zero bytes but never start with one),
   short strings over "ab" that are prefixes of one another, the empty
   one among them, and keys of up to 32 bytes that share 24 (longer
   than the 16 prefix bytes a node stores). *)
(* The [i]th string over "ab" (bijective base 2): [""], ["a"], ["b"],
   ["aa"], ... ; the strings of up to [n] letters are those below
   [2^(n+1) - 1]. *)
let ab_string i =
  let b = Buffer.create 8 in
  let rec go i =
    if i > 0 then begin
      Buffer.add_char b (if (i - 1) land 1 = 0 then 'a' else 'b');
      go ((i - 1) / 2)
    end
  in
  go i;
  Buffer.contents b

let families =
  [
    ("int keys and \"\"", 400, fun i -> if i = 0 then "" else Key.of_int ((i - 200) * 1_000_003));
    ("prefix strings", 126, ab_string);
    ("32-byte keys", 510, fun i -> String.make 24 'u' ^ ab_string i);
  ]

let insert_plain ctx key =
  let ptr = Heap.alloc ctx.kv_heap ~numa:0 64 in
  Hashtbl.replace ctx.kv_keys (Pptr.off ptr) key;
  ignore (Art.insert ctx.art key ptr : Art.insert_outcome);
  ptr

(* Random inserts and deletes against a sorted string map, then
   [lookup] and [lookup_le] at every key drawn, present or not, and
   their neighbours by index: each agrees with the map's find and
   floor. *)
let plain_key_test (family, bound, key) =
  QCheck.Test.make ~name:("pdlart: " ^ family ^ " agree with a sorted map") ~count:40
    QCheck.(list_of_size Gen.(int_range 1 150) (pair (int_bound bound) bool))
    (fun ops ->
      let ctx = make_art () in
      let model =
        List.fold_left
          (fun model (i, ins) ->
            let k = key i in
            if ins then Smap.add k (insert_plain ctx k) model
            else begin
              let deleted = Art.delete ctx.art k in
              if Option.is_some deleted <> Smap.mem k model then
                QCheck.Test.fail_reportf "delete %S: trie and map disagree" k;
              Smap.remove k model
            end)
          Smap.empty ops
      in
      let name p = if Pptr.is_null p then None else Some (Hashtbl.find ctx.kv_keys (Pptr.off p)) in
      List.iter
        (fun (i, _) ->
          List.iter
            (fun j ->
              if j >= 0 && j <= bound then begin
                let q = key j in
                let found = Option.bind (Art.lookup ctx.art q) (fun p -> name p) in
                if found <> (if Smap.mem q model then Some q else None) then
                  QCheck.Test.fail_reportf "lookup %S" q;
                let floor =
                  Option.map fst (Smap.find_last_opt (fun k -> String.compare k q <= 0) model)
                in
                if name (Art.lookup_le ctx.art q) <> floor then
                  QCheck.Test.fail_reportf "lookup_le %S: %s expected" q
                    (Option.value ~default:"none" (Option.map (Printf.sprintf "%S") floor))
              end)
            [ i - 1; i; i + 1 ])
        ops;
      true)

let suite =
  [
    QCheck_alcotest.to_alcotest test_lookup_le_floor;
    QCheck_alcotest.to_alcotest test_iter_sorted_tail;
  ]
  @ List.map (fun f -> QCheck_alcotest.to_alcotest (plain_key_test f)) families
