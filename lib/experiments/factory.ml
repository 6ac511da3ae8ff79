(** Construction of the benchmarked systems behind one switch. *)

module Tree = Pactree.Tree
module Index = Baselines.Index_intf

type sys = Pactree_sys | Pdlart_sys | Fastfair_sys | Bztree_sys | Fptree_sys

let all = [ Pactree_sys; Pdlart_sys; Bztree_sys; Fastfair_sys; Fptree_sys ]

let name = function
  | Pactree_sys -> Tree.name
  | Pdlart_sys -> Baselines.Pdlart.name
  | Fastfair_sys -> Baselines.Fastfair.name
  | Bztree_sys -> Baselines.Bztree.name
  | Fptree_sys -> Baselines.Fptree.name

let id = function
  | Pactree_sys -> "pactree"
  | Pdlart_sys -> "pdlart"
  | Fastfair_sys -> "fastfair"
  | Bztree_sys -> "bztree"
  | Fptree_sys -> "fptree"

let of_string = function
  | "pdl-art" -> Some Pdlart_sys
  | s -> List.find_opt (fun sys -> id sys = s) all

(* The authors' FPTree binary does not support variable-length keys
   (paper §6), so string-key sweeps skip it. *)
let supports_strings = function Fptree_sys -> false | _ -> true

let pactree_service t =
  {
    Baselines.System.body = (fun () -> Tree.updater_loop t);
    shutdown = (fun () -> Tree.request_shutdown t);
  }

let make_backend machine ?(string_keys = false) ?scale:_ ?cfg sys : Baselines.System.t =
  match sys with
  | Pactree_sys ->
      let cfg =
        match cfg with
        | Some c -> c
        | None -> { Tree.default_config with key_inline = (if string_keys then 32 else 8) }
      in
      let t = Tree.create machine ~cfg () in
      {
        b_index = Baselines.Pactree_index.wrap t;
        b_recover = (fun () -> ignore (Tree.recover t : int));
        b_invariants = (fun () -> ignore (Tree.check_invariants t : int));
        b_service = Some (pactree_service t);
        b_splits = Some (fun () -> Tree.splits_of_thread t);
      }
  | Pdlart_sys ->
      let t = Baselines.Pdlart.create machine () in
      {
        b_index = Index.Index ((module Baselines.Pdlart), t);
        b_recover = (fun () -> Baselines.Pdlart.recover t);
        b_invariants = ignore;
        b_service = None;
        b_splits = None;
      }
  | Fastfair_sys ->
      let t = Baselines.Fastfair.create machine ~string_keys () in
      {
        b_index = Index.Index ((module Baselines.Fastfair), t);
        b_recover = (fun () -> Baselines.Fastfair.recover t);
        b_invariants = (fun () -> ignore (Baselines.Fastfair.check_invariants t : int));
        b_service = None;
        b_splits = None;
      }
  | Bztree_sys ->
      let t = Baselines.Bztree.create machine ~string_keys () in
      {
        b_index = Index.Index ((module Baselines.Bztree), t);
        b_recover = (fun () -> Baselines.Bztree.recover t);
        b_invariants = (fun () -> ignore (Baselines.Bztree.check_invariants t : int));
        b_service = None;
        b_splits = None;
      }
  | Fptree_sys ->
      let t = Baselines.Fptree.create machine ~string_keys () in
      {
        b_index = Index.Index ((module Baselines.Fptree), t);
        b_recover = (fun () -> Baselines.Fptree.recover t);
        b_invariants = (fun () -> ignore (Baselines.Fptree.check_invariants t : int));
        b_service = None;
        b_splits = None;
      }
