(** Mutable min-priority queue of ints keyed by simulated time.

    Used as the event queue of the discrete-event scheduler, whose
    values are thread ids.  Ties are broken by insertion order (FIFO),
    which keeps simulations deterministic.  Adding and popping allocate
    nothing once the queue has grown to its peak size. *)

type t

(** [create ()] is an empty queue. *)
val create : unit -> t

val is_empty : t -> bool

val length : t -> int

(** [add q ~time v] schedules [v] at [time]. *)
val add : t -> time:float -> int -> unit

(** [min_time q] is the time of the earliest event.  Raises [Not_found]
    if the queue is empty. *)
val min_time : t -> float

(** [pop_min q] removes the earliest event and returns its value.
    Raises [Not_found] if the queue is empty. *)
val pop_min : t -> int

(** [push_pop q ~time v] is [add q ~time v; pop_min q] without
    touching the queue when [v] comes out again: it returns [v] if the
    queue is empty or [time] is strictly earlier than every queued
    event (a tie goes to the event already queued), and otherwise
    removes and returns the earliest event and schedules [v] in one
    sift. *)
val push_pop : t -> time:float -> int -> int
