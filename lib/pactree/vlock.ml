module Pool = Nvm.Pool

let word ~gen ~version = (gen lsl 32) lor (version land 0xFFFFFFFF)

let gen_of w = w lsr 32

let version_of w = w land 0xFFFFFFFF

(* A lock word written before the last crash carries a stale
   generation: it reads as free with version 0.  Readers never write
   (GA2) — crucially, even a speculative read of a location that is
   not a lock word must stay pure; the word is re-initialised only
   when a writer acquires it.  Stale->stale transitions are
   impossible (only writers store words, always with the current
   generation), so "effective version 0" is stable and optimistic
   validation stays sound.

   Lock words are transient by the same argument: they are never
   flushed, because the generation bump voids them after any crash —
   all stores below are exempt from the persist-order sanitizer, whose
   closure is built only while one runs.

   Every function addresses the word by its pool and offset, so a
   node visit or a writer builds no record. *)
let effective w ~gen = if gen_of w = gen then version_of w else 0

let is_current w ~gen = gen_of w = gen

let store pool off w =
  if Pobj.Sanitizer.active () then
    Pobj.Sanitizer.with_suppressed (fun () -> Pool.write_int pool off w)
  else Pool.write_int pool off w

let cas pool off ~expected w =
  if Pobj.Sanitizer.active () then
    Pobj.Sanitizer.with_suppressed (fun () -> Pool.cas_int pool off ~expected w)
  else Pool.cas_int pool off ~expected w

let fresh ~gen = word ~gen ~version:0

let init pool off ~gen = store pool off (fresh ~gen)

let is_locked version = version land 1 = 1

(* Bit 1 marks a node retired by a copy-on-write replacement: its
   contents are frozen garbage-to-be.  Readers must restart rather
   than use it; writers can never lock it again (the ART-OLC
   "obsolete" marker).  The version counter lives in bits 2+. *)
let obsolete_bit = 2

let is_obsolete version = version land obsolete_bit <> 0

let read_version pool off ~gen = effective (Pool.read_int pool off) ~gen

(* Exponential backoff up to ~80us: under device saturation a lock
   can be held across millisecond-long fences, and fine-grained
   spinning would flood the event queue. *)
let backoff = Des.Sched.Doubling (40e-9, 11)

(* The retry loops are top-level functions rather than local closures:
   every node visit takes a version. *)
let rec read_unlocked pool off ~gen attempt =
  let v = read_version pool off ~gen in
  if is_locked v then begin
    Des.Sched.wait "vlock read" off ~attempt backoff;
    read_unlocked pool off ~gen (attempt + 1)
  end
  else v

let begin_read pool off ~gen = read_unlocked pool off ~gen 0

(* [begin_read] over a copy: the lock word and the [len - 8] bytes
   after it come in one read, so the version and the fields it guards
   are taken at the same instant. *)
let rec snapshot_unlocked pool off ~gen buf pos len attempt =
  Pool.blit_to_bytes pool off buf pos len;
  let v = effective (Int64.to_int (Bytes.get_int64_le buf pos)) ~gen in
  if is_locked v then begin
    Des.Sched.wait "vlock read" off ~attempt backoff;
    snapshot_unlocked pool off ~gen buf pos len (attempt + 1)
  end
  else v

let begin_read_snapshot pool off ~gen buf pos len = snapshot_unlocked pool off ~gen buf pos len 0

let validate pool off ~gen ~version = effective (Pool.read_int pool off) ~gen = version

let try_upgrade pool off ~gen ~version =
  (not (is_locked version))
  && (not (is_obsolete version))
  &&
  let raw = Pool.read_int pool off in
  effective raw ~gen = version && cas pool off ~expected:raw (word ~gen ~version:(version + 1))

let lock_from pool off ~gen w =
  let v = effective w ~gen in
  if
    (not (is_locked v))
    && (not (is_obsolete v))
    && cas pool off ~expected:w (word ~gen ~version:(v + 1))
  then v + 1
  else -1

(* One read of the word, then a CAS from that very word: nothing reads
   it a second time. *)
let rec lock_loop pool off ~gen attempt =
  let v = lock_from pool off ~gen (Pool.read_int pool off) in
  if v >= 0 then v
  else begin
    Des.Sched.wait "vlock acquire" off ~attempt backoff;
    lock_loop pool off ~gen (attempt + 1)
  end

let acquire pool off ~gen = lock_loop pool off ~gen 0

(* Unlock, bumping the counter past the lock bit (versions move in
   steps of 4: bit 0 = locked, bit 1 = obsolete, counter above). *)
let release pool off ~gen ~version =
  assert (is_locked version);
  store pool off (word ~gen ~version:(version + 3))

(* Unlock and permanently retire the word: no later reader validates
   against it and no writer can ever lock it again. *)
let release_obsolete pool off ~gen ~version =
  assert (is_locked version);
  store pool off (word ~gen ~version:((version + 3) lor obsolete_bit))

exception Restart

(* Only [Restart] restarts: any other exception, a bounds fault
   included, propagates, so a bug raises instead of spinning with
   locks held. *)
let rec retry_from attempt on_restart f a b =
  match f a b with
  | v -> v
  | exception Restart ->
      on_restart a;
      Des.Sched.wait "restart" (-1) ~attempt (Des.Sched.Linear (50e-9, 2e-6));
      retry_from (attempt + 1) on_restart f a b

let retrying on_restart f a b = retry_from 0 on_restart f a b

let retry f = retrying ignore (fun f () -> f ()) f ()
