(** Deterministic discrete-event scheduler.

    Simulated threads are cooperative coroutines implemented with
    OCaml 5 effect handlers.  A thread runs host code at "infinite
    speed" until it performs a simulated-time action ([delay],
    [charge], blocking on a {!Waitq.t}); the scheduler then advances a
    virtual clock and switches to the next earliest event.

    The NVM model charges every media access, flush and fence through
    this module, so simulated throughput reflects the modelled
    hardware rather than the host machine.  Runs are deterministic:
    the event queue breaks ties by insertion order and all randomness
    comes from {!Rng}. *)

type t

(** [create ()] makes a fresh scheduler.  [start] (default 0) sets the
    initial clock — pass the previous phase's end time when running
    consecutive simulations against the same machine, so that device
    state (channel bookings) remains temporally consistent. *)
val create : ?start:float -> unit -> t

(** Current simulated time, in seconds. *)
val now : t -> float

(** [spawn t ?numa ~name body] registers a new simulated thread that
    starts when [run] reaches the current clock.  [numa] (default 0)
    is the NUMA domain the thread is pinned to; the NVM model reads it
    via [current_numa]. *)
val spawn : t -> ?numa:int -> name:string -> (unit -> unit) -> unit

(** A thread made no progress: the simulated time, who is stuck on
    what, and every live thread's name, id and latest {!wait} (what it
    was on, when it began and its last try). *)
exception Stalled of string

(** [run t] executes events until the queue is empty, i.e. all spawned
    threads have finished or are waiting on a {!Waitq.t} that nobody
    will ever signal, which raises {!Stalled} naming them. *)
val run : t -> unit

(** SIGKILL semantics for crash tests: discard every pending event and
    suspended thread.  The calling thread (if any) runs to
    completion. *)
val abort_all : t -> unit

(** {2 Operations available inside a simulated thread}

    These take no scheduler argument: the running scheduler is
    implicit.  Outside a simulation they degrade gracefully: [delay]
    and [charge] are no-ops, [current_*] return defaults.  This lets
    the index and NVM code run unchanged in plain single-threaded
    programs (e.g. the examples). *)

(** [delay seconds] suspends the calling thread for [seconds] of
    simulated time (plus any accumulated [charge]). *)
val delay : float -> unit

(** [charge seconds] adds [seconds] to the calling thread's clock
    without a context switch; the amount is folded into the next
    [delay] or block.  Use for cheap, non-blocking costs such as CPU
    work and cache hits. *)
val charge : float -> unit

(** Charged time accumulated by the calling thread that has not yet
    been folded into the clock by a [delay] or block; [0.] outside a
    simulation.  [now t +. pending_charge ()] is the calling thread's
    effective clock — observability code uses it so that span
    boundaries see [charge]d costs without forcing a context switch. *)
val pending_charge : unit -> float

(** A 256-byte buffer private to the calling simulated thread (the
    host program outside a simulation has its own).  Hot paths copy
    simulated memory into it instead of allocating: a copy that must
    survive a simulated-time action (which lets other threads run)
    cannot live in a buffer shared between threads.  The holder must
    not call anything that uses the buffer itself while it still needs
    the copy. *)
val scratch : unit -> Bytes.t

(** The running scheduler's clock ([now] of the scheduler inside
    [run]); [0.] outside a simulation.  For the NVM model, which needs
    the time of the calling thread's access without holding the
    scheduler. *)
val time : unit -> float

(** A request time and a completion time in a float-only record, which
    OCaml stores unboxed: a device model's cursor.  [stamp r] sets both
    to {!time}; [delay_interval r] is [delay (r.at -. r.start)].  The
    times pass through neither call boxed, as a float argument or
    result crossing a module boundary is when the call is not
    inlined. *)
type interval = { mutable start : float; mutable at : float }

val stamp : interval -> unit

val delay_interval : interval -> unit

(** The pause after a failed attempt [n] (from 0): none, and no yield
    ([Now]); a fixed one; [base *. 2 ** min n cap] ([Doubling]);
    [min (n *. step) cap] ([Linear]). *)
type backoff = Now | Fixed of float | Doubling of float * int | Linear of float * float

(** [wait what arg ~attempt backoff] is what every retry loop calls
    when its attempt [attempt] (0 for the first) fails: the calling
    thread waits on [what] (a static label) and [arg] (an offset or a
    thread id; negative for none), then pauses as [backoff] says.  The
    wait began at the latest failed attempt 0.  The one rule: a wait
    longer than [W] of simulated time (DESIGN §2) raises {!Stalled}. *)
val wait : string -> int -> attempt:int -> backoff -> unit

(** [W], in simulated seconds. *)
val stall_after : float

(** Failed attempts ({!wait} calls) of the calling thread so far. *)
val waits : unit -> int

(** Identifier of the calling simulated thread; [-1] outside a
    simulation. *)
val current_id : unit -> int

(** NUMA domain of the calling simulated thread; [0] outside a
    simulation. *)
val current_numa : unit -> int

(** Name of the calling simulated thread; ["main"] outside. *)
val current_name : unit -> string

(** [running ()] is [true] when called from inside a simulated
    thread. *)
val running : unit -> bool

(** The scheduler driving the calling simulated thread. *)
val self : unit -> t option

(** Condition-variable-like wait queue for simulated threads. *)
module Waitq : sig
  type sched := t

  type t

  val create : unit -> t

  (** Block the calling thread until [signal_all] (or [signal_one]) is
      called by another simulated thread.  Accumulated [charge] time
      is applied before blocking. *)
  val wait : t -> unit

  (** Wake every waiting thread at the current simulated time. *)
  val signal_all : sched -> t -> unit

  (** Wake at most one waiting thread (FIFO). *)
  val signal_one : sched -> t -> unit
end
