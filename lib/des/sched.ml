(* The clock and a thread's pending [charge] live in float-only
   records, which OCaml stores unboxed: both are written on every
   context switch and charge, and must not allocate. *)
type clock = { mutable now : float }

type pending = {
  mutable extra : float; (* accumulated charge not yet in the clock *)
  mutable at : float; (* the time of its latest event, set as it is queued or delays *)
  mutable since : float; (* when its current or latest wait began *)
  mutable last : float; (* its latest failed attempt *)
}

type thread = {
  id : int;
  name : string;
  numa : int;
  pending : pending;
  mutable k : (unit, unit) Effect.Deep.continuation;
      (* where the thread resumes at its next event; [no_k] while it has
         nothing to resume *)
  wake : unit -> unit;
      (* queues the thread at its scheduler's current time; built once
         per thread *)
  mutable next_waiter : thread; (* behind it on a [Waitq]; [main] at the tail *)
  scratch : Bytes.t; (* see [scratch] *)
  mutable on : string; (* what its current or latest wait is on, [""] before any *)
  mutable arg : int; (* and which one *)
  mutable waits : int; (* failed attempts so far *)
}

type _ Effect.t +=
  | Delay : unit Effect.t
        (* suspend for the calling thread's pending charge, which
           [delay] has already topped up *)
  | Park : unit Effect.t (* suspend until something calls the thread's [wake] *)

(* A continuation that is never resumed: the [k] of threads with
   nothing to resume, so that the field needs no option box. *)
let no_k : (unit, unit) Effect.Deep.continuation =
  let parked = ref None in
  let on_park = Some (fun (k : (unit, unit) Effect.Deep.continuation) -> parked := Some k) in
  Effect.Deep.try_with Effect.perform Park
    {
      effc =
        (fun (type c) (eff : c Effect.t) ->
          match eff with
          | Park -> (on_park : ((c, unit) Effect.Deep.continuation -> unit) option)
          | _ -> None);
    };
  Option.get !parked

(* Stands for "no simulated thread": the host program outside [run],
   the filler of the thread table's unused slots, and the end of every
   wait queue. *)
let rec main =
  {
    id = -1;
    name = "main";
    numa = 0;
    pending = { extra = 0.0; at = 0.0; since = 0.0; last = 0.0 };
    k = no_k;
    wake = ignore;
    next_waiter = main;
    scratch = Bytes.create 256;
    on = "";
    arg = 0;
    waits = 0;
  }

type t = {
  clock : clock;
  events : Event_queue.t; (* of thread ids *)
  mutable current : thread;
      (* the running thread; between events, the thread that has just
         called [delay] (not yet queued), or [main] *)
  mutable next_id : int;
  mutable live : int;
  mutable threads : thread array; (* every spawned thread, at its id *)
  handler : (unit, unit) Effect.Deep.handler; (* every thread's; see [spawn] *)
}

(* The running scheduler for the (single) host thread.  The simulation
   is cooperative, so a plain ref is race-free. *)
let active : t option ref = ref None

(* The handler's answers depend neither on the effect's occurrence nor
   on the thread, which is [current] whenever it performs one, so they
   are built once per scheduler.  A delaying thread is not queued here:
   it stays [current], and [run] either resumes it at once or swaps it
   for the earliest event (see [next]). *)
let create ?(start = 0.0) () =
  let open Effect.Deep in
  let rec t =
    {
      clock = { now = start };
      events = Event_queue.create ();
      current = main;
      next_id = 0;
      live = 0;
      threads = [||];
      handler =
        {
          retc = (fun () -> t.current <- main);
          exnc =
            (fun exn ->
              t.current <- main;
              raise exn);
          effc =
            (fun (type c) (eff : c Effect.t) ->
              match eff with
              | Delay -> (on_delay : ((c, unit) continuation -> unit) option)
              | Park -> (on_park : ((c, unit) continuation -> unit) option)
              | _ -> None);
        };
    }
  and on_delay : ((unit, unit) continuation -> unit) option = Some (fun k -> t.current.k <- k)
  and on_park : ((unit, unit) continuation -> unit) option =
    Some
      (fun k ->
        t.current.k <- k;
        t.current <- main)
  in
  t

let[@inline] now t = t.clock.now

let[@inline] flush_extra thread =
  let e = thread.pending.extra in
  thread.pending.extra <- 0.0;
  e

let spawn t ?(numa = 0) ~name body =
  let rec thread =
    {
      id = t.next_id;
      name;
      numa;
      pending = { extra = 0.0; at = 0.0; since = 0.0; last = 0.0 };
      k = no_k;
      wake =
        (fun () ->
          thread.pending.at <- t.clock.now;
          Event_queue.add t.events ~time:t.clock.now thread.id);
      next_waiter = main;
      scratch = Bytes.create 256;
      on = "";
      arg = 0;
      waits = 0;
    }
  in
  if thread.id = Array.length t.threads then begin
    let grown = Array.make (max 8 (2 * thread.id)) main in
    Array.blit t.threads 0 grown 0 thread.id;
    t.threads <- grown
  end;
  t.threads.(thread.id) <- thread;
  t.next_id <- t.next_id + 1;
  t.live <- t.live + 1;
  (* Enter the handler now and park at once, so that from birth the
     thread is a continuation like any suspended one.  [spawn] may be
     called from a running thread, whose [current] the park must not
     clobber. *)
  let caller = t.current in
  t.current <- thread;
  Effect.Deep.match_with
    (fun () ->
      Effect.perform Park;
      body ();
      t.live <- t.live - 1)
    () t.handler;
  t.current <- caller;
  thread.wake ()

(* Power-failure semantics: drop every pending event and suspended
   thread.  When called from inside a simulated thread (the "crasher"),
   that thread keeps running to completion. *)
let abort_all t =
  while not (Event_queue.is_empty t.events) do
    t.threads.(Event_queue.pop_min t.events).k <- no_k
  done;
  t.live <- (if t.current == main then 0 else 1)

let dispatch t thread =
  let k = thread.k in
  if k == no_k then invalid_arg "Sched.run: event for a thread with nothing to resume";
  thread.k <- no_k;
  t.current <- thread;
  Effect.Deep.continue k ()

let[@inline] advance t time = if time > t.clock.now then t.clock.now <- time

(* The thread to run next, with the clock advanced to its event, or
   [main] when nothing is left.  A thread that has just delayed is
   offered to the queue and comes back out if it is still the
   earliest, so a delay that wakes first costs no heap operation and
   one that does not costs a single sift.  The clock is read from the
   chosen thread's [at] rather than from the queue, whose float
   results are boxed where [Event_queue] is not inlined (the dev
   profile); for the same reason an empty queue is not called. *)
let next t =
  let q = t.events in
  let th = t.current in
  let next =
    if th != main then begin
      t.current <- main;
      th.pending.at <- t.clock.now +. flush_extra th;
      if Event_queue.is_empty q then th
      else Array.unsafe_get t.threads (Event_queue.push_pop q ~time:th.pending.at th.id)
    end
    else if Event_queue.is_empty q then main
    else Array.unsafe_get t.threads (Event_queue.pop_min q)
  in
  if next != main then advance t next.pending.at;
  next

exception Stalled of string

let resource th = if th.arg < 0 then th.on else Printf.sprintf "%s %d" th.on th.arg

(* Raise [Stalled]: [headline], then the latest wait of every thread of
   [t] that has not finished (the running one and those with something
   to resume). *)
let stalled t ~now headline =
  let b = Buffer.create 256 in
  Printf.bprintf b "stalled at %.9f s: %s; live threads:" now headline;
  for id = 0 to t.next_id - 1 do
    let th = t.threads.(id) in
    if th == t.current || th.k != no_k then begin
      Printf.bprintf b "\n  %s (thread %d): " th.name th.id;
      if th.on = "" then Buffer.add_string b "no wait"
      else
        Printf.bprintf b "%s since %.9f s, last try %.9f s" (resource th) th.pending.since
          th.pending.last
    end
  done;
  raise (Stalled (Buffer.contents b))

let run t =
  let saved = !active in
  active := Some t;
  let finish () = active := saved in
  (try
     let thread = ref (next t) in
     while !thread != main do
       dispatch t !thread;
       thread := next t
     done
   with exn ->
     finish ();
     raise exn);
  finish ();
  if t.live > 0 then
    stalled t ~now:t.clock.now
      (Printf.sprintf "%d thread(s) blocked forever (missing signal?)" t.live)

(* The calling simulated thread, or [main] outside one. *)
let[@inline] current () = match !active with Some t -> t.current | None -> main

let[@inline] running () = current () != main

let self () = if running () then !active else None

let[@inline] time () = match !active with Some t -> t.clock.now | None -> 0.0

let current_id () = (current ()).id

let current_numa () = (current ()).numa

let current_name () = (current ()).name

let[@inline] delay seconds =
  let th = current () in
  if th != main then begin
    th.pending.extra <- th.pending.extra +. seconds;
    Effect.perform Delay
  end

type interval = { mutable start : float; mutable at : float }

let stamp r =
  let now = time () in
  r.start <- now;
  r.at <- now

let delay_interval r = delay (r.at -. r.start)

let[@inline] charge seconds =
  let th = current () in
  if th != main then th.pending.extra <- th.pending.extra +. seconds

let[@inline] pending_charge () = (current ()).pending.extra

let scratch () = (current ()).scratch

type backoff = Now | Fixed of float | Doubling of float * int | Linear of float * float

(* W: a wait longer than this is a stall.  The longest wait measured
   over the tests, the figures and the benchmark was 7.3 ms (DESIGN
   §2). *)
let stall_after = 1.0

let[@inline never] stall th =
  let headline =
    Printf.sprintf "%s (thread %d) waited %.9f s on %s" th.name th.id
      (th.pending.last -. th.pending.since) (resource th)
  in
  match !active with
  | Some t when th != main -> stalled t ~now:th.pending.last headline
  | _ -> raise (Stalled headline)

(* The one wait rule.  Nothing here is a float argument, so a wait
   allocates only the continuation of its pause.  Outside a simulation
   nothing else runs, and the pauses are the host program's clock. *)
let wait what arg ~attempt backoff =
  let th = current () in
  let p = th.pending in
  p.last <- (if th == main then p.last else time () +. p.extra);
  if attempt = 0 then p.since <- p.last;
  th.on <- what;
  th.arg <- arg;
  th.waits <- th.waits + 1;
  if p.last -. p.since > stall_after then stall th;
  let seconds =
    match backoff with
    | Now -> 0.0
    | Fixed s -> s
    | Doubling (base, cap) -> base *. float_of_int (1 lsl min attempt cap)
    | Linear (step, cap) ->
        let s = float_of_int attempt *. step in
        if s < cap then s else cap
  in
  if th == main then p.last <- p.last +. seconds
  else if backoff != Now then begin
    p.extra <- p.extra +. seconds;
    Effect.perform Delay
  end

let waits () = (current ()).waits

(* An intrusive FIFO threaded through [next_waiter]: waiting and
   waking allocate nothing. *)
module Waitq = struct
  type t = {
    mutable head : thread; (* [main] when empty *)
    mutable tail : thread;
  }

  let create () = { head = main; tail = main }

  let wait wq =
    let th = current () in
    if th == main then invalid_arg "Waitq.wait outside a simulated thread"
    else begin
      (* Enqueue-and-suspend must be atomic with respect to the
         caller's wait-condition check: no simulated-time action may
         occur in between, or a concurrent signal could be lost.
         Accumulated [charge] time simply folds into the next delay
         after wake-up. *)
      if wq.head == main then wq.head <- th else wq.tail.next_waiter <- th;
      wq.tail <- th;
      Effect.perform Park
    end

  (* Detach and return the oldest waiter; the queue must not be empty. *)
  let pop wq =
    let th = wq.head in
    wq.head <- th.next_waiter;
    if wq.head == main then wq.tail <- main;
    th.next_waiter <- main;
    th

  let signal_all _sched wq =
    (* only the threads waiting now: a woken thread cannot re-wait
       before it runs *)
    while wq.head != main do
      (pop wq).wake ()
    done

  let signal_one _sched wq = if wq.head != main then (pop wq).wake ()
end
