module Machine = Nvm.Machine

type event =
  | Store of { pool : int; line : int; data : string }
  | Clwb of { tid : int; pool : int; line : int; data : string }
  | Fence of { tid : int }
  | Drain of { pool : int; line : int; data : string }

type t = {
  machine : Machine.t;
  mutable events_rev : event list;
  mutable count : int;
  base : (int, Bytes.t) Hashtbl.t; (* pool id -> media image at [start] *)
  mutable unsubscribe : unit -> unit;
  mutable cache : event array option;
}

(* The line's content as the event left it: post-store for a store, the
   staged snapshot for a clwb, the drained content for a drain. *)
let with_data machine ev =
  let data pool line = Nvm.Pool.line_content (Nvm.Pool.of_id machine pool) line in
  match ev with
  | Machine.Store { pool; line; _ } -> Store { pool; line; data = data pool line }
  | Machine.Clwb { tid; pool; line } -> Clwb { tid; pool; line; data = data pool line }
  | Machine.Fence { tid } -> Fence { tid }
  | Machine.Drain { pool; line; _ } -> Drain { pool; line; data = data pool line }

let start machine =
  let t =
    {
      machine;
      events_rev = [];
      count = 0;
      base = Hashtbl.create 8;
      unsubscribe = ignore;
      cache = None;
    }
  in
  List.iter
    (fun p ->
      if not (Nvm.Pool.is_volatile p) then
        Hashtbl.replace t.base (Nvm.Pool.id p) (Nvm.Pool.media_image p))
    (Nvm.Pool.all machine);
  t.unsubscribe <-
    Machine.subscribe machine (fun ev ->
        t.events_rev <- with_data machine ev :: t.events_rev;
        t.count <- t.count + 1;
        t.cache <- None);
  t

let stop t =
  t.unsubscribe ();
  t.unsubscribe <- ignore

let machine t = t.machine

let seq t = t.count

let events t =
  match t.cache with
  | Some a -> a
  | None ->
      let a = Array.of_list (List.rev t.events_rev) in
      t.cache <- Some a;
      a

let base_media t pool_id = Hashtbl.find_opt t.base pool_id
