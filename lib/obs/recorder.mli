(** Bundle of the observability instruments for one measured run: a
    span recorder and (optionally) a time-series sampler, both against
    one machine.  The workload runner and the service engine accept
    one of these and wire everything up. *)

type t = { span : Span.t; sampler : Sampler.t option }

(** [create machine ()] — pass [~sample_interval] (simulated seconds)
    to also collect the bandwidth-over-time series. *)
val create : Nvm.Machine.t -> ?sample_interval:float -> unit -> t

(** Full dump: per-phase breakdown + time series. *)
val to_json : t -> Json.t
