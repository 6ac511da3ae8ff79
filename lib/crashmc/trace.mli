(** Persist-trace recorder.

    Subscribes to {!Nvm.Machine}'s persist events and logs every store,
    [clwb], fence and eADR drain.  Machine events carry no line data;
    the recorder copies the 64 B line from the pool as each event
    arrives ({!Nvm.Pool.line_content}, which charges no simulated time
    and leaves the cache model alone, so recording never moves a
    result).  With a snapshot of every pool's media image at recording
    start, the trace is a complete, self-contained description of the
    machine's persistence behaviour over a run: {!Enum} replays it to
    enumerate reachable crash images. *)

(** A persist event with the line content it left: the post-store
    line, the staged [clwb] snapshot (durable at thread [tid]'s next
    fence), or the eADR-drained line (durable at once). *)
type event =
  | Store of { pool : int; line : int; data : string }
  | Clwb of { tid : int; pool : int; line : int; data : string }
  | Fence of { tid : int }  (** applies [tid]'s staged snapshots *)
  | Drain of { pool : int; line : int; data : string }

type t

(** Snapshot all pool media images and subscribe.  Other subscribers
    (the persist-order sanitizer) may share the machine. *)
val start : Nvm.Machine.t -> t

(** Unsubscribe.  The trace stays readable. *)
val stop : t -> unit

val machine : t -> Nvm.Machine.t

(** Events recorded so far — the op-boundary cursor used by the
    durable-linearizability oracle. *)
val seq : t -> int

val events : t -> event array

(** Media image of a pool at {!start} ([None]: created later, or
    volatile — both mean an all-zero base). *)
val base_media : t -> int -> Bytes.t option
