(** Persistent-pointer resolution.

    A persistent pointer embeds the id of its pool, and pool ids are
    numbered per machine (see {!Nvm.Machine.pool_count}), so a pointer
    is resolved against the machine it belongs to.  This lets
    pointers cross heaps (e.g. an SMO-log entry in the log pool naming
    a data node in the data heap) while two machines in one process
    each resolve their own pool 0. *)

(** [resolve machine p] is the pool of persistent pointer [p]: an
    index into [machine]'s pool table, allocation-free. *)
val resolve : Nvm.Machine.t -> Pptr.t -> Nvm.Pool.t
