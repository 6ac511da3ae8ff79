(** A benchmarked system as every harness sees it: one live index plus
    the hooks that the workload runner, the sharded service store and
    the crash-state model checker call.  [Experiments.Factory] builds
    one for each of the five systems; [Workload.Runner.service] and
    [Svc.Store.backend] are these types. *)

(** Background service (e.g. PACTree's updater): [body] is spawned
    before the workers, [shutdown] is invoked once all workers
    finish. *)
type service = { body : unit -> unit; shutdown : unit -> unit }

type t = {
  b_index : Index_intf.index;
  b_recover : unit -> unit;
      (** repair a restored image and build every volatile structure
          anew from it, as a restart would: nothing from before the
          crash (locks, epochs, queues) survives the call *)
  b_invariants : unit -> unit;  (** structural checker; raises on corruption *)
  b_service : service option;
}
