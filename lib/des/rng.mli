(** Deterministic pseudo-random number generator (splitmix64).

    Every stochastic choice in the simulator and workloads draws from
    an explicit [Rng.t] so that runs are reproducible from a seed. *)

type t

val create : seed:int64 -> t

(** [split t] derives an independent generator, e.g. one per simulated
    thread, without sharing state with [t]'s future draws. *)
val split : t -> t

(** Next raw 64-bit value. *)
val next : t -> int64

(** [int t bound] is uniform in [\[0, bound)].  [bound] must be > 0. *)
val int : t -> int -> int

(** [bits53 t] is uniform in [\[0, 2{^53})]: the bits [float] scales
    to [\[0, 1)], as an int that crosses a call unboxed. *)
val bits53 : t -> int

(** A float drawn uniformly from [\[0, 1)]: [float_of_int (bits53 t)]
    times 2{^-53}. *)
val float : t -> float

(** [bool t] is a fair coin flip. *)
val bool : t -> bool

(** [env_seed ~default] reads a seed override from the [PACTREE_SEED]
    environment variable (decimal or 0x-prefixed), falling back to
    [default].  Stochastic suites use it so any failure, printed with
    its seed, can be replayed exactly. *)
val env_seed : default:int64 -> int64
