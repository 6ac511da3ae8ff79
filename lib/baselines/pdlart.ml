(* Standalone PDL-ART baseline: the paper's persistent
   durable-linearizable ART used directly as a key-value index (§3,
   §6.1), i.e. the starting point of the Fig 12 factor analysis.

   Unlike PACTree, key-value pairs are NOT embedded in leaf nodes:
   every insert allocates an out-of-node record (GA3's allocation
   cost), every lookup pays an extra dereference, and scans perform
   random reads per record instead of sequential node reads (GA5,
   Figs 4/5).  Updates are out-of-place (allocate + swap + deferred
   free) to stay durably linearizable. *)

module Pool = Nvm.Pool
module Machine = Nvm.Machine
module Heap = Pmalloc.Heap
module Pptr = Pmalloc.Pptr
module Key = Pactree.Key
module Art = Pactree.Art

let name = "PDL-ART"

(* What a crash loses: the trie's handle (its generation) and the
   epoch, both built anew by [start] on every create and recover. *)
type volatile = { art : Art.t; epoch : Pactree.Epoch.t }

(* Record layout: value (8B) | key length (1B) | key bytes. *)
type t = {
  machine : Machine.t;
  heap : Heap.t;
  meta : Pool.t;
  mutable v : volatile;
}

let record_key machine ptr =
  let pool = Pptr.resolve machine ptr in
  let off = Pptr.off ptr in
  let len = Pool.read_u8 pool (off + 8) in
  Pool.read_string pool (off + 9) len

(* [String.compare (record_key machine ptr) rkey] in place, at the same
   cost. *)
let compare_record machine ptr rkey =
  let pool = Pptr.resolve machine ptr in
  let off = Pptr.off ptr in
  let len = Pool.read_u8 pool (off + 8) in
  Pool.compare_string pool (off + 9) len rkey

let start machine heap meta =
  let epoch = Pactree.Epoch.create () in
  let art =
    Art.create ~heap ~meta ~epoch ~key_of_leaf:(record_key machine)
      ~compare_leaf:(compare_record machine)
  in
  { art; epoch }

let create machine ?(alloc_kind = Heap.Pmdk) ?numa_pools () =
  let numa = Option.value ~default:(Machine.numa_count machine) numa_pools in
  let heap = Heap.create machine ~kind:alloc_kind ~name:"pdlart" ~numa_pools:numa () in
  let meta =
    Pool.create machine ~name:"pdlart.meta" ~numa:0 ~capacity:(Art.meta_size + 256) ()
  in
  { machine; heap; meta; v = start machine heap meta }

let alloc_record t rkey value =
  let size = 9 + String.length rkey in
  let ptr = Heap.alloc t.heap size in
  let pool = Pptr.resolve t.machine ptr in
  let off = Pptr.off ptr in
  Pool.write_int pool off value;
  Pool.write_u8 pool (off + 8) (String.length rkey);
  Pool.write_string pool (off + 9) rkey;
  Pool.persist pool off size;
  ptr

let record_value t ptr =
  let pool = Pptr.resolve t.machine ptr in
  Pool.read_int pool (Pptr.off ptr)

let free_later t ptr = Pactree.Epoch.defer t.v.epoch (fun () -> Heap.free t.heap ptr)

let set_record_value t ptr value =
  let pool = Pptr.resolve t.machine ptr in
  Pool.write_int pool (Pptr.off ptr) value;
  Pool.persist pool (Pptr.off ptr) 8

(* Upsert.  An existing key's record is updated in place: the value is
   a single 8-byte atomic store + persist (durably linearizable on its
   own).  Only genuinely new keys allocate a record (GA3's
   per-insert allocation).  The epoch pin keeps a concurrently deleted
   record alive while we write it. *)
let insert t key value =
  let rkey = Key.to_radix key in
  Pactree.Epoch.enter t.v.epoch;
  Fun.protect ~finally:(fun () -> Pactree.Epoch.exit t.v.epoch) @@ fun () ->
  match Art.lookup t.v.art rkey with
  | Some record -> set_record_value t record value
  | None -> (
      let record = alloc_record t rkey value in
      match Art.insert t.v.art rkey record with
      | Art.Inserted -> ()
      | Art.Replaced old ->
          (* raced with a concurrent insert of the same key *)
          free_later t old)

let lookup t key =
  match Art.lookup t.v.art (Key.to_radix key) with
  | Some record -> Some (record_value t record)
  | None -> None

let update t key value =
  let rkey = Key.to_radix key in
  Pactree.Epoch.enter t.v.epoch;
  Fun.protect ~finally:(fun () -> Pactree.Epoch.exit t.v.epoch) @@ fun () ->
  match Art.lookup t.v.art rkey with
  | None -> false
  | Some record ->
      set_record_value t record value;
      true

let delete t key =
  let rkey = Key.to_radix key in
  match Art.delete t.v.art rkey with
  | Some old ->
      free_later t old;
      true
  | None -> false

(* Scan through trie order: one random record read per result (no
   sequential locality — the GA5 cost). *)
let scan t key n_wanted =
  let acc = ref [] and n = ref 0 in
  Art.iter_from t.v.art (Key.to_radix key) (fun record ->
      acc := (Key.of_radix (record_key t.machine record), record_value t record) :: !acc;
      incr n;
      !n < n_wanted);
  List.rev !acc

let recover t =
  Heap.recover t.heap;
  t.v <- start t.machine t.heap t.meta;
  ignore (Art.recover t.v.art)

let art t = t.v.art

let heap t = t.heap
