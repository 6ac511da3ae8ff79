(** Persistent multi-word compare-and-swap model (Wang et al.,
    ICDE'18) — the primitive BzTree builds on.

    Charges the real protocol's persistence traffic (descriptor
    persist, per-word install persist, status finalisation) against a
    per-thread descriptor area; see the implementation header for the
    atomicity model. *)

type target = {
  pool : Nvm.Pool.t;
  off : int;  (** 8-byte aligned *)
  expected : int;
  desired : int;
}

(** Bytes of descriptor area needed in the caller's pool. *)
val region_size : int

(** A handle over the descriptor area at [desc_base] of [desc_pool],
    with its own striped locks: volatile, so it is built anew on every
    restart. *)
type t

val create : desc_pool:Nvm.Pool.t -> desc_base:int -> t

(** [execute t targets] returns [true] iff every target held its
    expected value; on success all desired values are stored and
    persisted.  [targets] must be non-empty; operations whose first
    target words collide serialise. *)
val execute : t -> target list -> bool

(** Post-crash descriptor replay: rolls succeeded-but-unfinalised
    descriptors forward (reinstalls every desired value) and undecided
    ones back.  Returns the number replayed. *)
val recover : t -> int
