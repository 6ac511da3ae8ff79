module Key = Pactree.Key
module Index = Baselines.Index_intf

type backend = Baselines.System.t = {
  b_index : Index.index;
  b_recover : unit -> unit;
  b_invariants : unit -> unit;
  b_service : Workload.Runner.service option;
  b_splits : (unit -> int) option;
}

type shard = { s_id : int; s_numa : int; s_backend : backend }

type t = {
  machine : Nvm.Machine.t;
  boundaries : Key.t array;
  shards : shard array;
}

let machine t = t.machine

let shard_count t = Array.length t.shards

let shard_numa t i = t.shards.(i).s_numa

let create ~machine ~boundaries ~make_backend ?log_entries:_ () =
  Array.iteri
    (fun i b ->
      if i > 0 && Key.compare boundaries.(i - 1) b >= 0 then
        invalid_arg "Svc.Store.create: boundaries not strictly increasing")
    boundaries;
  let numa_count = Nvm.Machine.numa_count machine in
  let nshards = Array.length boundaries + 1 in
  let shards =
    Array.init nshards (fun i ->
        let numa = i mod numa_count in
        { s_id = i; s_numa = numa; s_backend = make_backend ~shard:i ~numa })
  in
  { machine; boundaries; shards }

(* ---------- routing ---------- *)

let shard_of_key t k =
  (* smallest i with k < boundaries.(i); shard i owns [b.(i-1), b.(i)) *)
  let lo = ref 0 and hi = ref (Array.length t.boundaries) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Key.compare t.boundaries.(mid) k <= 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let boundaries_for ~kind ~keys ~shards =
  if shards < 1 then invalid_arg "boundaries_for: shards < 1";
  (* each shard's range needs a key of its own *)
  if keys < shards then
    invalid_arg
      (Printf.sprintf "Svc.Store.boundaries_for: keys = %d, fewer than shards = %d" keys
         shards);
  if shards = 1 then [||]
  else begin
    let all = Array.init keys (fun i -> Workload.Keyset.key kind i) in
    Array.sort Key.compare all;
    Array.init (shards - 1) (fun i -> all.((i + 1) * keys / shards))
  end

let services t =
  Array.to_list t.shards
  |> List.filter_map (fun s ->
         match s.s_backend.b_service with
         | Some svc -> Some (s.s_id, svc)
         | None -> None)

(* ---------- operations ---------- *)

let insert t k v = Index.insert t.shards.(shard_of_key t k).s_backend.b_index k v

let lookup t k = Index.lookup t.shards.(shard_of_key t k).s_backend.b_index k

let update t k v = Index.update t.shards.(shard_of_key t k).s_backend.b_index k v

let delete t k = Index.delete t.shards.(shard_of_key t k).s_backend.b_index k

(* Shards own disjoint key ranges in shard order ([create] requires
   strictly increasing boundaries), so the per-shard runs, fetched in
   shard order, are already sorted and disjoint: the result is their
   concatenation, cut to [n]. *)
let scan t k n =
  if n <= 0 then []
  else begin
    let nshards = Array.length t.shards in
    (* fetch successor shards only while the result can still grow *)
    let rec fetch acc total i =
      if total >= n || i >= nshards then List.filteri (fun j _ -> j < n) (List.concat (List.rev acc))
      else
        let run = Index.scan t.shards.(i).s_backend.b_index k n in
        fetch (run :: acc) (total + List.length run) (i + 1)
    in
    fetch [] 0 (shard_of_key t k)
  end

module Index_impl = struct
  type nonrec t = t

  let name = "svc-store"

  let insert = insert

  let lookup = lookup

  let update = update

  let delete = delete

  let scan = scan
end

let as_index t = Index.Index ((module Index_impl : Index.S with type t = t), t)

(* ---------- maintenance ---------- *)

let recover t = Array.iter (fun s -> s.s_backend.b_recover ()) t.shards

let invariants t = Array.iter (fun s -> s.s_backend.b_invariants ()) t.shards
