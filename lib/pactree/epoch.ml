type thread_state = { mutable depth : int; mutable local : int }

(* Thread states are indexed by simulated thread id + 1 (the host
   program is -1), so a scan of them is a loop; a thread that never
   entered holds depth 0.  Deferred actions wait in order of
   deferral, which is also epoch order. *)
type t = {
  mutable epoch : int;
  mutable threads : thread_state array;
  deferred : (int * (unit -> unit)) Queue.t; (* oldest first *)
  mutable ops_since_advance : int;
}

let fresh_states n = Array.init n (fun _ -> { depth = 0; local = 0 })

let create () =
  { epoch = 0; threads = fresh_states 8; deferred = Queue.create (); ops_since_advance = 0 }

(* Every index operation enters and exits: finding the thread's state
   allocates nothing once the array covers its id. *)
let state t =
  let i = Des.Sched.current_id () + 1 in
  let n = Array.length t.threads in
  if i >= n then begin
    let grown = fresh_states (max (2 * n) (i + 1)) in
    Array.blit t.threads 0 grown 0 n;
    t.threads <- grown
  end;
  Array.unsafe_get t.threads i

(* The state index of the first thread pinned in an older epoch, which
   holds the next advance back, from [i] on; past the end if none. *)
let rec behind_from t i =
  if i >= Array.length t.threads then i
  else
    let ts = Array.unsafe_get t.threads i in
    if ts.depth > 0 && ts.local <> t.epoch then i else behind_from t (i + 1)

let all_caught_up t = behind_from t 0 >= Array.length t.threads

let holder t = if all_caught_up t then -1 else behind_from t 0 - 1

(* The deferred actions two epochs old, taken off the queue newest
   first: nothing when the oldest is not ripe. *)
let rec take_ripe t acc =
  if (not (Queue.is_empty t.deferred)) && fst (Queue.peek t.deferred) <= t.epoch - 2 then
    take_ripe t (snd (Queue.pop t.deferred) :: acc)
  else acc

(* Run the ripe actions oldest first.  All of them leave the queue
   before the first runs: an action can let other threads run, and an
   advance they make must find only the actions not yet taken. *)
let run_ripe t = List.iter (fun f -> f ()) (List.rev (take_ripe t []))

let try_advance t =
  if all_caught_up t then begin
    t.epoch <- t.epoch + 1;
    run_ripe t
  end

(* enter/exit are re-entrant: an index operation may span nested
   epoch-protected components (tree + search layer). *)
let enter t =
  let ts = state t in
  if ts.depth = 0 then ts.local <- t.epoch;
  ts.depth <- ts.depth + 1

let exit t =
  let ts = state t in
  assert (ts.depth > 0);
  ts.depth <- ts.depth - 1;
  if ts.depth = 0 then begin
    t.ops_since_advance <- t.ops_since_advance + 1;
    if t.ops_since_advance >= 32 || not (Queue.is_empty t.deferred) then begin
      t.ops_since_advance <- 0;
      try_advance t
    end
  end

let defer t f = Queue.push (t.epoch, f) t.deferred

(* Temporarily release the calling thread's pin so the epoch can
   advance past it (e.g. while waiting for deferred frees to release
   log slots).  ONLY safe when the caller holds no optimistic
   references — everything it touches must be locked. *)
let unpin_while t f =
  let ts = state t in
  let depth = ts.depth in
  ts.depth <- 0;
  let restore () =
    ts.depth <- depth;
    ts.local <- t.epoch
  in
  match f () with
  | v ->
      restore ();
      v
  | exception exn ->
      restore ();
      raise exn

let pending t = Queue.length t.deferred

let current t = t.epoch
