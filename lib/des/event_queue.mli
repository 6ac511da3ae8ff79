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
