(* A thread's pending [charge] lives in a float-only record, which OCaml
   stores unboxed: charging is the most frequent simulated-time action
   and must not allocate. *)
type pending = { mutable extra : float (* accumulated charge not yet in the clock *) }

type thread = {
  id : int;
  name : string;
  numa : int;
  pending : pending;
  mutable resume : resume; (* what the next event of this thread runs *)
  scratch : Bytes.t; (* see [scratch] *)
}

and resume =
  | Idle
  | Start of (unit -> unit)
  | Continue of (unit, unit) Effect.Deep.continuation

let new_thread ~id ~name ~numa =
  { id; name; numa; pending = { extra = 0.0 }; resume = Idle; scratch = Bytes.create 128 }

(* Stands for "no simulated thread": the host program outside [run],
   and the dummy that fills vacant event-queue slots. *)
let main = new_thread ~id:(-1) ~name:"main" ~numa:0

type t = {
  mutable clock : float;
  events : thread Event_queue.t;
  mutable current : thread; (* [main] between events *)
  mutable next_id : int;
  mutable live : int;
}

(* The running scheduler for the (single) host thread.  The simulation
   is cooperative, so a plain ref is race-free. *)
let active : t option ref = ref None

type _ Effect.t +=
  | Delay : unit Effect.t
        (* suspend for the calling thread's pending charge, which
           [delay] has already topped up *)
  | Suspend : ((unit -> unit) -> unit) -> unit Effect.t
        (* [Suspend park] hands the caller's "resume" closure to
           [park], which stores it (e.g. on a wait queue). *)

let create ?(start = 0.0) () =
  {
    clock = start;
    events = Event_queue.create ~dummy:main ();
    current = main;
    next_id = 0;
    live = 0;
  }

let now t = t.clock

let flush_extra thread =
  let e = thread.pending.extra in
  thread.pending.extra <- 0.0;
  e

let spawn t ?(numa = 0) ~name body =
  let thread = new_thread ~id:t.next_id ~name ~numa in
  t.next_id <- t.next_id + 1;
  t.live <- t.live + 1;
  let open Effect.Deep in
  (* The handler's answer to [Delay] does not depend on the effect, so
     it is built once per thread rather than once per delay. *)
  let on_delay =
    Some
      (fun (k : (unit, unit) continuation) ->
        let pause = flush_extra thread in
        thread.resume <- Continue k;
        Event_queue.add t.events ~time:(t.clock +. pause) thread;
        t.current <- main)
  in
  let start () =
    match_with
      (fun () ->
        body ();
        t.live <- t.live - 1)
      ()
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
            | Suspend park ->
                Some
                  (fun (k : (c, _) continuation) ->
                    let resume () =
                      thread.resume <- Continue k;
                      Event_queue.add t.events ~time:t.clock thread
                    in
                    park resume;
                    t.current <- main)
            | _ -> None);
      }
  in
  thread.resume <- Start start;
  Event_queue.add t.events ~time:t.clock thread

(* Power-failure semantics: drop every pending event and suspended
   thread.  When called from inside a simulated thread (the "crasher"),
   that thread keeps running to completion. *)
let abort_all t =
  while not (Event_queue.is_empty t.events) do
    (Event_queue.pop_min t.events).resume <- Idle
  done;
  t.live <- (if t.current == main then 0 else 1)

let debug_progress =
  match Sys.getenv_opt "DES_DEBUG" with Some _ -> true | None -> false

let dispatch t thread =
  let resume = thread.resume in
  thread.resume <- Idle;
  t.current <- thread;
  match resume with
  | Start start -> start ()
  | Continue k -> Effect.Deep.continue k ()
  | Idle -> invalid_arg "Sched.run: event for a thread with nothing to resume"

let run t =
  let saved = !active in
  active := Some t;
  let finish () = active := saved in
  let events = ref 0 in
  (try
     while not (Event_queue.is_empty t.events) do
       let time = Event_queue.min_time t.events in
       let thread = Event_queue.pop_min t.events in
       if time > t.clock then t.clock <- time;
       if debug_progress then begin
         incr events;
         if !events land 0xFFFFF = 0 then
           Printf.eprintf "[des] %dM events, sim %.3f ms, queue %d\n%!" (!events / 1_000_000)
             (t.clock *. 1e3) (Event_queue.length t.events)
       end;
       dispatch t thread
     done
   with exn ->
     finish ();
     raise exn);
  finish ();
  if t.live > 0 then
    invalid_arg
      (Printf.sprintf "Sched.run: %d thread(s) blocked forever (missing signal?)" t.live)

(* The calling simulated thread, or [main] outside one. *)
let current () = match !active with Some t -> t.current | None -> main

let running () = current () != main

let self () = if running () then !active else None

let current_id () = (current ()).id

let current_numa () = (current ()).numa

let current_name () = (current ()).name

let delay seconds =
  let th = current () in
  if th != main then begin
    th.pending.extra <- th.pending.extra +. seconds;
    Effect.perform Delay
  end

let charge seconds =
  let th = current () in
  if th != main then th.pending.extra <- th.pending.extra +. seconds

let pending_charge () = (current ()).pending.extra

let scratch () = (current ()).scratch

let yield () = delay 0.0

module Waitq = struct
  type t = { mutable queue : (unit -> unit) list (* reversed FIFO *) }

  let create () = { queue = [] }

  let wait wq =
    if not (running ()) then invalid_arg "Waitq.wait outside a simulated thread"
    else
      (* Enqueue-and-suspend must be atomic with respect to the
         caller's wait-condition check: no simulated-time action may
         occur in between, or a concurrent signal could be lost.
         Accumulated [charge] time simply folds into the next
         delay after wake-up. *)
      Effect.perform (Suspend (fun resume -> wq.queue <- resume :: wq.queue))

  let signal_all _sched wq =
    let resumers = List.rev wq.queue in
    wq.queue <- [];
    List.iter (fun resume -> resume ()) resumers

  let signal_one _sched wq =
    match List.rev wq.queue with
    | [] -> ()
    | resume :: rest ->
        wq.queue <- List.rev rest;
        resume ()

  let waiters wq = List.length wq.queue
end
