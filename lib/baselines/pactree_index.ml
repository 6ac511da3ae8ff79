(** PACTree packed as an {!Index_intf.index}, so the workload runner
    drives it like every baseline. *)

let wrap t = Index_intf.Index ((module Pactree.Tree), t)
