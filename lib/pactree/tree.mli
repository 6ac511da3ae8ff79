(** PACTree — the paper's persistent hybrid range index (§4-§5).

    A trie-based search layer ({!Art}) indexes the anchor keys of a
    doubly-linked list of slotted data nodes ({!Data_node}).  The
    layers are decoupled: structural modifications log to a per-thread
    SMO log and complete without touching the search layer; a
    background updater replays the log asynchronously, and readers
    tolerate the lag by walking sibling pointers from the jump node
    (ephemeral inconsistency, §4.3).

    All operations are durably linearizable (§5): a completed call's
    effect survives any crash, and crash recovery ({!recover}) repairs
    interrupted structural modifications from the SMO log. *)

type t

(** "PACTree", the name benchmark tables use. *)
val name : string

(** Construction-time switches; the defaults are full PACTree, the
    others exist for the paper's factor analysis (Fig 12). *)
type config = {
  key_inline : int;  (** 8 (integer keys) or 32 (string keys) *)
  async_smo : bool;  (** asynchronous search-layer update (§4.3) *)
  selective_persistence : bool;  (** skip persisting permutation arrays (§4.4) *)
  search_layer_dram : bool;  (** DRAM-resident search layer (ablation) *)
  data_capacity : int;  (** bound on a data pool's bytes *)
  search_capacity : int;  (** bound on a search-layer pool's bytes *)
}

val default_config : config

type stats = {
  mutable splits : int;
  mutable merges : int;
  mutable reader_retries : int;
}

val create : Nvm.Machine.t -> ?cfg:config -> unit -> t

val machine : t -> Nvm.Machine.t

val data_heap : t -> Pmalloc.Heap.t

val epoch : t -> Epoch.t

(** {2 Operations} *)

(** Upsert: inserts, or updates the value of an existing key. *)
val insert : t -> Key.t -> int -> unit

val lookup : t -> Key.t -> int option

(** [update t k v] is [true] iff [k] existed. *)
val update : t -> Key.t -> int -> bool

(** [delete t k] is [true] iff [k] existed. *)
val delete : t -> Key.t -> bool

(** [scan t k n]: up to [n] pairs with key >= [k], in key order. *)
val scan : t -> Key.t -> int -> (Key.t * int) list

(** {2 Background updater (§5.6)} *)

(** Body of the background updater thread; run it via
    [Des.Sched.spawn].  Exits once {!request_shutdown} was called and
    the log is drained, and consumes that request: a later updater on
    the same tree runs until the next one. *)
val updater_loop : t -> unit

val request_shutdown : t -> unit

(** Synchronously replay queued SMO entries (used when no updater
    thread is running, e.g. outside a simulation). *)
val drain_smo : t -> unit

(** SMO-log entries not yet replayed and cleared (every queued entry
    is one of them). *)
val smo_backlog : t -> int

(** {2 Recovery (§5.9)} *)

(** Post-crash recovery: recovers both heaps, builds the volatile state
    anew as {!create} does (a fresh epoch and updater state, the trie
    reopened with a new lock generation), then replays/repairs
    outstanding SMO log entries (rebuilding the search layer when it
    lived in DRAM).  Returns the number of SMO entries repaired. *)
val recover : t -> int

(** {2 Introspection} *)

val stats : t -> stats

val art_stats : t -> Art.stats

(** §6.7: histogram of hops from the search-layer jump node to the
    target node (index = hops, last bucket = overflow). *)
val jump_histogram : t -> int array

(** Walk both layers, failing on any broken invariant; returns the
    number of data nodes.  (Search-layer completeness is only checked
    when the SMO backlog is empty.) *)
val check_invariants : t -> int

(** All pairs in key order (test helper — walks the data layer). *)
val to_list : t -> (Key.t * int) list

val cardinal : t -> int
