(** Epoch-based memory reclamation (paper §5.6).

    Retired NVM objects may still be referenced by concurrent
    optimistic readers; they are freed only after two epoch
    advancements, which guarantees (1) no new references exist (first
    epoch) and (2) all references taken before retirement have been
    dropped (second epoch).

    Threads bracket every index operation with [enter]/[exit]. *)

type t

val create : unit -> t

(** Begin an operation on the calling simulated thread. *)
val enter : t -> unit

(** End the operation; occasionally tries to advance the epoch and run
    ripe deferred frees. *)
val exit : t -> unit

(** [defer t f] schedules [f] to run once two epochs have passed. *)
val defer : t -> (unit -> unit) -> unit

(** [unpin_while t f] releases the calling thread's epoch pin for the
    duration of [f], letting the epoch advance past it.  Only safe
    when the caller holds no optimistic references (everything it
    touches is locked): used to wait for deferred frees without
    blocking them. *)
val unpin_while : t -> (unit -> 'a) -> 'a

(** Force an advancement attempt (runs ripe deferred frees). *)
val try_advance : t -> unit

(** Deferred actions not yet executed. *)
val pending : t -> int

(** Current epoch number (for tests). *)
val current : t -> int

(** The id of the first simulated thread pinned in an older epoch,
    which holds the next advancement back; [-1] if none does. *)
val holder : t -> int
