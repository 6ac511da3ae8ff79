(** FPTree baseline (Oukid et al., SIGMOD'16): a DRAM-NVM hybrid
    B+-tree.

    Internal nodes in DRAM (rebuilt on restart), fingerprinted
    unsorted leaves on NVM, HTM for the internal structure with leaf
    locks, synchronous splits.  Scans re-sort every visited leaf (no
    cached permutation).  See the implementation header. *)

type t

val name : string

val create : Nvm.Machine.t -> ?string_keys:bool -> unit -> t

val insert : t -> Pactree.Key.t -> int -> unit

val lookup : t -> Pactree.Key.t -> int option

val update : t -> Pactree.Key.t -> int -> bool

(** Bitmap-clearing deletion (no leaf merging, as in the authors'
    binary). *)
val delete : t -> Pactree.Key.t -> bool

val scan : t -> Pactree.Key.t -> int -> (Pactree.Key.t * int) list

(** HTM commit/abort/fallback counters (Fig 6). *)
val htm_stats : t -> Htm.stats

(** Post-restart recovery: rebuilds the DRAM internal layer by walking
    the persistent leaf chain (FPTree's recovery-time cost). *)
val recover : t -> unit

val check_invariants : t -> int
