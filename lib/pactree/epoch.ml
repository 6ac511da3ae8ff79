type thread_state = { mutable depth : int; mutable local : int }

type t = {
  mutable epoch : int;
  threads : (int, thread_state) Hashtbl.t;
  mutable deferred : (int * (unit -> unit)) list; (* newest first *)
  mutable ops_since_advance : int;
}

let create () =
  { epoch = 0; threads = Hashtbl.create 64; deferred = []; ops_since_advance = 0 }

(* Every index operation enters and exits: [Hashtbl.find] keeps the
   common case allocation-free. *)
let state t =
  let tid = Des.Sched.current_id () in
  match Hashtbl.find t.threads tid with
  | ts -> ts
  | exception Not_found ->
      let ts = { depth = 0; local = 0 } in
      Hashtbl.add t.threads tid ts;
      ts

let all_caught_up t =
  Hashtbl.fold (fun _ ts acc -> acc && (ts.depth = 0 || ts.local = t.epoch)) t.threads true

let run_ripe t =
  let ripe, fresh = List.partition (fun (e, _) -> e <= t.epoch - 2) t.deferred in
  t.deferred <- fresh;
  List.iter (fun (_, f) -> f ()) (List.rev ripe)

let attempts = ref 0

let try_advance t =
  incr attempts;
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
    if t.ops_since_advance >= 32 || t.deferred <> [] then begin
      t.ops_since_advance <- 0;
      try_advance t
    end
  end

let defer t f = t.deferred <- (t.epoch, f) :: t.deferred

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

let pending t = List.length t.deferred

let current t = t.epoch
