(** Hardware-transactional-memory model (Intel RTM), used by the
    FPTree baseline.

    An attempt aborts with probability [p_capacity(footprint) +
    p_conflict(concurrent transactions)], charging the wasted window;
    after 5 failures the execution takes a global fallback
    lock (which aborts all running transactions).  Reproduces the
    paper's GC3 finding that HTM progress degrades with data-set size
    and concurrency (Fig 6). *)

type stats = {
  mutable attempts : int;
  mutable commits : int;
  mutable aborts : int;
  mutable fallbacks : int;
}

type t

val create : seed:int64 -> unit -> t

val stats : t -> stats

(** [execute t ~footprint_lines ~duration body] runs [body]
    transactionally.  [duration] is the transaction window (elapses
    inside the transaction, so concurrent transactions overlap);
    [body] itself must not block. *)
val execute : t -> footprint_lines:int -> ?duration:float -> (unit -> 'a) -> 'a
