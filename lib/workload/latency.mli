(** Operation latency recording with percentile reporting (paper §6.4:
    10% of operations are sampled, tails up to p99.99). *)

type t

(** [create ~sample_rate rng] — [sample_rate] in (0, 1]. *)
val create : ?sample_rate:float -> Des.Rng.t -> t

(** [should_sample t] decides (cheaply) whether this operation's
    latency should be recorded. *)
val should_sample : t -> bool

(** Record one latency in seconds. *)
val record : t -> float -> unit

val count : t -> int

(** [percentile t p] with [p] in [0, 100], e.g. [99.99].  Raises
    [Invalid_argument] outside that range.  An empty recorder (no
    samples yet) reports 0.0 for every percentile — callers that need
    to distinguish "no data" from "zero latency" should consult
    {!count}. *)
val percentile : t -> float -> float

(** Arithmetic mean of the recorded samples; 0.0 when empty. *)
val mean : t -> float

(** Largest recorded sample; 0.0 when empty. *)
val max : t -> float

(** The number of recorded samples of at least [x]. *)
val count_at_least : t -> float -> int

(** Merge [src] into [dst] (combining per-thread recorders). *)
val merge : dst:t -> src:t -> unit
