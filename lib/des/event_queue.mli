(** Mutable min-priority queue keyed by simulated time.

    Used as the event queue of the discrete-event scheduler.  Ties are
    broken by insertion order (FIFO), which keeps simulations
    deterministic.  Adding and popping allocate nothing once the queue
    has grown to its peak size. *)

type 'a t

(** [create ~dummy ()] is an empty queue.  [dummy] fills the slots the
    queue does not use, so that popped values are not kept reachable. *)
val create : dummy:'a -> unit -> 'a t

val is_empty : 'a t -> bool

val length : 'a t -> int

(** [add q ~time v] schedules [v] at [time]. *)
val add : 'a t -> time:float -> 'a -> unit

(** [min_time q] is the time of the earliest event.  Raises [Not_found]
    if the queue is empty. *)
val min_time : 'a t -> float

(** [pop_min q] removes the earliest event and returns its value.
    Raises [Not_found] if the queue is empty. *)
val pop_min : 'a t -> 'a

(** [push_pop q ~time v] is [add q ~time v; pop_min q] without
    touching the queue when [v] comes out again: it returns [v] if the
    queue is empty or [time] is strictly earlier than every queued
    event (a tie goes to the event already queued), and otherwise
    removes and returns the earliest event and schedules [v] in one
    sift. *)
val push_pop : 'a t -> time:float -> 'a -> 'a
