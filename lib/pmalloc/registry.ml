(* Pools are held weakly: the registry must not keep the (large) pool
   images of discarded machines alive — benchmark suites create
   hundreds of machines per process. *)
let table : (int, Nvm.Pool.t Weak.t) Hashtbl.t = Hashtbl.create 256

let register pool =
  let w = Weak.create 1 in
  Weak.set w 0 (Some pool);
  Hashtbl.replace table (Nvm.Pool.id pool) w

(* Every persistent pointer dereference resolves here: [Hashtbl.find]
   rather than [find_opt] keeps the lookup itself allocation-free (the
   weak read still returns an option). *)
let find id =
  match Hashtbl.find table id with
  | w -> (
      match Weak.get w 0 with
      | Some pool -> pool
      | None ->
          invalid_arg (Printf.sprintf "Registry.find: pool id %d no longer live" id))
  | exception Not_found -> invalid_arg (Printf.sprintf "Registry.find: unknown pool id %d" id)

let resolve p = find (Pptr.pool p)
