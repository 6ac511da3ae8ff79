(** Common interface of all benchmarked range indexes (PACTree and the
    comparison baselines of §6).

    A first-class-module value of type {!index} bundles one live index
    instance with its operations, so the workload runner can drive any
    of them uniformly.  Each index module is itself an {!S}: pack it as
    [Index ((module Baselines.Fastfair), t)]; {!Pactree_index.wrap}
    packs {!Pactree.Tree}. *)

module type S = sig
  type t

  (** Human-readable name used in benchmark tables. *)
  val name : string

  (** Upsert. *)
  val insert : t -> Pactree.Key.t -> int -> unit

  val lookup : t -> Pactree.Key.t -> int option

  (** Update an existing key; [false] when absent. *)
  val update : t -> Pactree.Key.t -> int -> bool

  val delete : t -> Pactree.Key.t -> bool

  (** [scan t k n]: up to [n] pairs with key >= [k] in key order. *)
  val scan : t -> Pactree.Key.t -> int -> (Pactree.Key.t * int) list
end

type index = Index : (module S with type t = 'a) * 'a -> index

let insert (Index ((module M), t)) k v = M.insert t k v

let lookup (Index ((module M), t)) k = M.lookup t k

let update (Index ((module M), t)) k v = M.update t k v

let delete (Index ((module M), t)) k = M.delete t k

let scan (Index ((module M), t)) k n = M.scan t k n
