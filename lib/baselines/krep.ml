(* Shared 8-byte key representation for the B+-tree baselines.

   Integer keys (8-byte, order-preserving encoding from {!Pactree.Key})
   are embedded directly: big-endian bytes reinterpreted as an int64,
   compared unsigned.  String keys are stored out-of-node in an NVM
   record (length byte + bytes) and the krep is the persistent
   pointer — every comparison then costs a dereference, which is the
   behaviour the paper highlights for FastFair on string keys. *)

module Pool = Nvm.Pool
module Heap = Pmalloc.Heap
module Pptr = Pmalloc.Pptr
module Key = Pactree.Key

type t = { heap : Heap.t; string_keys : bool }

let create ~heap ~string_keys = { heap; string_keys }

let encode_int_key k = String.get_int64_be k 0

(* Allocating conversion (used when storing a new record). *)
let of_key t (k : Key.t) =
  if t.string_keys then begin
    let ptr = t.heap |> fun h -> Heap.alloc h (1 + String.length k) in
    let pool = Pptr.resolve (Heap.machine t.heap) ptr in
    let off = Pptr.off ptr in
    Pool.write_u8 pool off (String.length k);
    Pool.write_string pool (off + 1) k;
    Pool.persist pool off (1 + String.length k);
    Int64.of_int ptr
  end
  else encode_int_key k

let to_key t krep =
  if t.string_keys then begin
    let ptr = Int64.to_int krep in
    let pool = Pptr.resolve (Heap.machine t.heap) ptr in
    let off = Pptr.off ptr in
    let len = Pool.read_u8 pool off in
    Pool.read_string pool (off + 1) len
  end
  else begin
    let b = Bytes.create 8 in
    Bytes.set_int64_be b 0 krep;
    Bytes.unsafe_to_string b
  end

(* Compare a stored krep against a probe key (the probe's int64 form
   can be precomputed with [encode_int_key] and passed as
   [probe_rep]). *)
let compare_with_key t krep ~probe_rep ~probe_key =
  if t.string_keys then begin
    let ptr = Int64.to_int krep in
    let pool = Pptr.resolve (Heap.machine t.heap) ptr in
    let off = Pptr.off ptr in
    let len = Pool.read_u8 pool off in
    Pool.compare_string pool (off + 1) len probe_key
  end
  else Int64.unsigned_compare krep probe_rep

let compare t a b =
  if t.string_keys then compare_with_key t a ~probe_rep:0L ~probe_key:(to_key t b)
  else Int64.unsigned_compare a b

let probe_rep t k = if t.string_keys then 0L else encode_int_key k
