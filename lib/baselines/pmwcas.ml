(* Persistent Multi-word Compare-and-Swap (Wang et al., ICDE'18) —
   the primitive BzTree builds on.

   The cost profile is what matters for the paper's comparison (§6.1:
   "at least 15 flushes per insert" for BzTree): a descriptor is
   written and persisted, each target word is installed and persisted,
   and the descriptor status is finalised and persisted.  We charge
   exactly that traffic against a per-thread descriptor area.

   The three-phase protocol is modelled faithfully enough to be
   crash-recoverable (lib/crashmc exercises it): the descriptor
   persists the target pointers and desired values plus a status word
   that moves undecided -> succeeded -> done, with the succeeded flip
   persisted *before* any target word is installed.  {!recover} rolls
   an interrupted succeeded descriptor forward (reinstalling every
   desired value) and an undecided one back (nothing was installed
   yet), which is exactly the real primitive's recovery rule.

   Atomicity in the simulator: a striped volatile mutex serialises
   PMwCAS executions whose first target word collides; BzTree always
   names the owning node's status word first, so operations on the
   same node serialise while independent nodes proceed in parallel —
   mirroring the real primitive's per-word contention behaviour.  Each
   handle has its own stripes: one built after a crash holds no lock. *)

module Pool = Nvm.Pool
module Pptr = Pmalloc.Pptr
module Layout = Pobj.Layout

type target = { pool : Pool.t; off : int; expected : int; desired : int }

let stripe_of tgt = (Pool.id tgt.pool * 8191) + (tgt.off lsr 3) land 1023

(* Per-thread descriptor slots in a caller-provided pool: a 16-byte
   header (status word: state in bits 0-3, word count in bits 8+)
   followed by up to 7 (pptr, desired) entry pairs. *)
let max_targets = 7

let dl = Layout.create "pmwcas.descriptor"

let f_status = Layout.word dl "status"

let f_entries = Layout.slots ~at:16 dl "entries" ~stride:16 ~count:max_targets

let descriptor_size = Layout.seal ~size:128 dl

let slots = 256

let region_size = slots * descriptor_size

let st_undecided = 1

let st_succeeded = 2

type t = { desc_pool : Pool.t; desc_base : int; stripes : Des.Sync.Mutex.t array }

let create ~desc_pool ~desc_base =
  { desc_pool; desc_base; stripes = Array.init 1024 (fun _ -> Des.Sync.Mutex.create ()) }

let desc_off base = base + ((Des.Sched.current_id () land (slots - 1)) * descriptor_size)

(* [execute t targets] returns [true] iff every target still held its
   expected value; on success all desired values are stored and
   persisted. *)
let execute t targets =
  assert (targets <> [] && List.length targets <= max_targets);
  let first = List.hd targets in
  let mutex = t.stripes.(stripe_of first land 1023) in
  Des.Sync.Mutex.with_lock mutex @@ fun () ->
  (* 1. Write and persist the descriptor. *)
  let d = Pobj.make t.desc_pool (desc_off t.desc_base) in
  let n = List.length targets in
  List.iteri
    (fun i tgt ->
      let entry = Layout.slot f_entries i in
      Pobj.write_int d entry (Pptr.make ~pool:(Pool.id tgt.pool) ~off:tgt.off);
      Pobj.write_int d (entry + 8) tgt.desired)
    targets;
  Pobj.set_int d f_status (st_undecided lor (n lsl 8));
  Pobj.persist_obj d dl;
  (* 2. Install phase: validate, persist the success verdict, then
     install each word (a CAS with persist per word in the real
     protocol).  The verdict must be durable before the first install
     so recovery can tell a partial install from a no-op. *)
  let ok =
    List.for_all (fun tgt -> Pobj.read_int (Pobj.make tgt.pool tgt.off) 0 = tgt.expected) targets
  in
  if ok then begin
    Pobj.set_int d f_status (st_succeeded lor (n lsl 8));
    Pobj.persist_field d f_status;
    List.iter
      (fun tgt ->
        let o = Pobj.make tgt.pool tgt.off in
        Pobj.write_int o 0 tgt.desired;
        Pobj.clwb o 0)
      targets;
    Pobj.fence d;
    (* 3. Finalise. *)
    Pobj.set_int d f_status 0;
    Pobj.persist_field d f_status
  end
  else begin
    (* failed attempt still persisted its status flip *)
    Pobj.set_int d f_status 0;
    Pobj.persist_field d f_status
  end;
  ok

(* Post-crash descriptor replay.  Succeeded-but-unfinalised
   descriptors are rolled forward (every desired value reinstalled —
   idempotent: each target word holds either its expected or its
   desired value); undecided ones are dropped (the success verdict is
   durable before any install, so nothing was written yet). *)
let recover t =
  let replayed = ref 0 in
  for slot = 0 to slots - 1 do
    let d = Pobj.make t.desc_pool (t.desc_base + (slot * descriptor_size)) in
    let s = Pobj.get_int d f_status in
    if s <> 0 then begin
      if s land 0xF = st_succeeded then begin
        incr replayed;
        let n = s lsr 8 in
        for i = 0 to n - 1 do
          let entry = Layout.slot f_entries i in
          let ptr = Pobj.read_int d entry in
          let desired = Pobj.read_int d (entry + 8) in
          let o = Pobj.make (Pptr.resolve (Pool.machine d.pool) ptr) (Pptr.off ptr) in
          Pobj.write_int o 0 desired;
          Pobj.persist o 0 8
        done
      end;
      Pobj.set_int d f_status 0;
      Pobj.persist_field d f_status
    end
  done;
  !replayed
