(* Hardware transactional memory model (Intel RTM), as used by FPTree
   for its internal nodes.

   The paper's GC3 finding is that HTM progress degrades with data-set
   size (capacity aborts: transactions are bounded by L1-sized read
   sets) and with concurrency (conflict aborts), Fig 6.  We model an
   attempt as aborting with probability

     p = p_capacity(footprint) + p_conflict(in-flight transactions)

   charging the wasted work of each abort, and fall back to a global
   lock after [max_retries] failed attempts — the standard RTM usage
   pattern (the paper notes the open-source LB+-Tree lacks exactly
   this fallback and is unstable). *)

type stats = {
  mutable attempts : int;
  mutable commits : int;
  mutable aborts : int;
  mutable fallbacks : int;
}

type t = {
  rng : Des.Rng.t;
  mutable concurrent : int;
  fallback : Des.Sync.Mutex.t;
  mutable fallback_held : bool;
  stats : stats;
}

(* The L1 data cache in lines (32 KB), and the failed attempts before
   the fallback lock. *)
let l1_lines = 512

let max_retries = 5

let create ~seed () =
  {
    rng = Des.Rng.create ~seed;
    concurrent = 0;
    fallback = Des.Sync.Mutex.create ();
    fallback_held = false;
    stats = { attempts = 0; commits = 0; aborts = 0; fallbacks = 0 };
  }

let stats t = t.stats

let abort_probability t ~footprint_lines =
  let capacity =
    let overflow = float_of_int (footprint_lines - (l1_lines / 8)) in
    Float.max 0.0 (Float.min 0.85 (overflow /. float_of_int l1_lines))
  in
  let conflict = Float.min 0.4 (0.012 *. float_of_int t.concurrent) in
  Float.min 0.95 (capacity +. conflict)

(* [execute t ~footprint_lines ~duration body] runs [body]
   transactionally.  [duration] is the transaction's window (its reads
   and computation); it elapses inside the transaction so concurrent
   transactions overlap, which drives the conflict-abort term.  [body]
   itself must be atomic in the simulator (no blocking inside). *)
let execute t ~footprint_lines ?(duration = 0.0) body =
  let rec attempt retry =
    t.stats.attempts <- t.stats.attempts + 1;
    if t.fallback_held then begin
      (* a fallback-lock holder aborts all transactions: wait *)
      t.stats.aborts <- t.stats.aborts + 1;
      Des.Sync.Mutex.lock t.fallback;
      Des.Sync.Mutex.unlock t.fallback;
      attempt retry
    end
    else if retry >= max_retries then begin
      t.stats.fallbacks <- t.stats.fallbacks + 1;
      Des.Sync.Mutex.lock t.fallback;
      t.fallback_held <- true;
      let finish () =
        t.fallback_held <- false;
        Des.Sync.Mutex.unlock t.fallback
      in
      if duration > 0.0 then Des.Sched.delay duration;
      match body () with
      | v ->
          finish ();
          v
      | exception exn ->
          finish ();
          raise exn
    end
    else begin
      t.concurrent <- t.concurrent + 1;
      (* the transaction window: other transactions may start/finish
         while this one is open *)
      if duration > 0.0 then Des.Sched.delay duration;
      let p = abort_probability t ~footprint_lines in
      if Des.Rng.float t.rng < p then begin
        (* aborted transaction: the window above was wasted work *)
        t.concurrent <- t.concurrent - 1;
        t.stats.aborts <- t.stats.aborts + 1;
        Des.Sched.delay (50e-9 +. (Des.Rng.float t.rng *. 200e-9));
        attempt (retry + 1)
      end
      else begin
        match body () with
        | v ->
            t.concurrent <- t.concurrent - 1;
            t.stats.commits <- t.stats.commits + 1;
            v
        | exception exn ->
            t.concurrent <- t.concurrent - 1;
            raise exn
      end
    end
  in
  attempt 0
