(** Workload scales for the benchmark suite.

    The paper runs 64M keys / 64M operations on a 3TB testbed; the
    simulator runs reduced scales (same code paths and mechanisms)
    so every figure regenerates in minutes.  See DESIGN.md §6. *)

type t = {
  keys : int;  (** preloaded key count *)
  ops : int;  (** operations per run *)
  thread_counts : int list;  (** x-axis of scalability figures *)
  data_capacity : int;  (** bytes per data pool *)
  search_capacity : int;  (** bytes per search-layer pool *)
}

val make : keys:int -> ops:int -> thread_counts:int list -> t

(** Default: 150K keys, 60K ops. *)
val quick : t

(** Paper-like: 400K keys, 200K ops, thread counts up to 112 (slow). *)
val full : t

(** Smoke-test scale. *)
val tiny : t

(** Crash-state model checking: 256 KiB pools, because every
    materialised crash state blits every pool; no preload (the
    checked trace brings its own ops). *)
val crashmc : t
