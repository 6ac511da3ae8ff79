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
  let compare_leaf ptr rkey = String.compare (key_of_leaf ptr) rkey in
  let art = Art.create ~heap ~meta ~epoch ~key_of_leaf ~compare_leaf in
  { art; kv_heap; kv_keys }

let insert_key ctx k =
  let rkey = Key.to_radix (Key.of_int k) in
  let ptr = Heap.alloc ctx.kv_heap ~numa:0 64 in
  Hashtbl.replace ctx.kv_keys (Pptr.off ptr) rkey;
  ignore (Art.insert ctx.art rkey ptr : Art.insert_outcome);
  ptr

let key_of ctx p = Key.to_int (Key.of_radix (Hashtbl.find ctx.kv_keys (Pptr.off p)))

(* Replay random (key, insert?) ops against both the trie and an int
   map; return the context and the surviving model. *)
let build ops =
  let ctx = make_art () in
  let model =
    List.fold_left
      (fun model (k, ins) ->
        if ins then Imap.add k (insert_key ctx k) model
        else begin
          ignore (Art.delete ctx.art (Key.to_radix (Key.of_int k)));
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
            let p = Art.lookup_le ctx.art (Key.to_radix (Key.of_int q)) in
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
      Art.iter_from ctx.art (Key.to_radix (Key.of_int start)) (fun p ->
          collected := key_of ctx p :: !collected;
          true);
      let got = List.rev !collected in
      let expect =
        Imap.fold (fun k _ acc -> if k >= start then k :: acc else acc) model []
        |> List.rev
      in
      got = expect)

let suite =
  [
    QCheck_alcotest.to_alcotest test_lookup_le_floor;
    QCheck_alcotest.to_alcotest test_iter_sorted_tail;
  ]
