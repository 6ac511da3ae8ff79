(** Time-series sampling of the machine + device counters.

    A sampler is a simulated thread ({!spawn}) that snapshots
    {!Nvm.Machine.total_stats} every [interval] simulated seconds.
    Diffing consecutive snapshots yields bandwidth-over-time series —
    the instrument that makes mechanisms like FH5's directory-protocol
    read-bandwidth meltdown directly plottable. *)

type t

(** [create ~machine ?interval ()] — [interval] defaults to 20
    simulated microseconds. *)
val create : machine:Nvm.Machine.t -> ?interval:float -> unit -> t

(** Spawn the sampling thread on [sched].  It records one sample per
    tick until {!stop}; after [stop] it records a final sample at the
    next tick and exits (so the scheduler's queue drains). *)
val spawn : t -> Des.Sched.t -> unit

(** Ask the sampling thread to exit at its next tick. *)
val stop : t -> unit

(** Cumulative samples, oldest first: (simulated time, counters). *)
val samples : t -> (float * Nvm.Stats.t) list

type rate = {
  t_us : float;  (** window end, simulated microseconds *)
  read_mbps : float;  (** media read bandwidth over the window, MB/s *)
  write_mbps : float;
  dir_write_mbps : float;  (** directory-coherence share of writes *)
  flushes_per_s : float;
  fences_per_s : float;
}

(** Per-window rates from consecutive samples ([samples] - 1 rows). *)
val rates : t -> rate list

val to_json : t -> Json.t
