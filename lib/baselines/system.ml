(** A benchmarked system as every harness sees it. *)

type service = { body : unit -> unit; shutdown : unit -> unit }

type t = {
  b_index : Index_intf.index;
  b_recover : unit -> unit;
  b_invariants : unit -> unit;
  b_service : service option;
}
