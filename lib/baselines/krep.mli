(** Shared 8-byte key representation for the B+-tree baselines.

    Integer keys embed their order-preserving bytes (compared as
    unsigned int64); string keys are stored out-of-node and the
    representation is a persistent pointer, so every comparison costs
    a dereference — the behaviour behind FastFair's string-key drop
    (paper Fig 9). *)

type t

val create : heap:Pmalloc.Heap.t -> string_keys:bool -> t

(** Storing conversion (allocates a record for string keys). *)
val of_key : t -> Pactree.Key.t -> int64

val to_key : t -> int64 -> Pactree.Key.t

(** Compare a stored representation against a probe key;
    [probe_rep] is [probe_rep t probe_key] (ignored for strings). *)
val compare_with_key : t -> int64 -> probe_rep:int64 -> probe_key:Pactree.Key.t -> int

(** [compare_at t pool off ~probe_rep ~probe_key] is
    [compare_with_key] of the representation stored at [off] in
    [pool] (8 bytes, as {!Nvm.Pool.write_int64} stores it), read with
    the same line access as {!Nvm.Pool.read_int64} but without boxing
    it.  An integer representation goes through bytes 0-7 of the
    calling thread's {!Des.Sched.scratch} buffer. *)
val compare_at :
  t -> Nvm.Pool.t -> int -> probe_rep:int64 -> probe_key:Pactree.Key.t -> int

val compare : t -> int64 -> int64 -> int

(** [probe_rep t k] precomputes the probe form for repeated
    comparisons. *)
val probe_rep : t -> Pactree.Key.t -> int64
