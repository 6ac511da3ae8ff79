module Machine = Nvm.Machine

type t = {
  machine : Machine.t;
  mutable events_rev : Machine.trace_event list;
  mutable count : int;
  base : (int, Bytes.t) Hashtbl.t; (* pool id -> media image at [start] *)
  mutable active : bool;
  mutable cache : Machine.trace_event array option;
}

let start machine =
  let t =
    {
      machine;
      events_rev = [];
      count = 0;
      base = Hashtbl.create 8;
      active = true;
      cache = None;
    }
  in
  List.iter
    (fun p ->
      if not (Nvm.Pool.is_volatile p) then
        Hashtbl.replace t.base (Nvm.Pool.id p) (Nvm.Pool.media_image p))
    (Nvm.Pool.all machine);
  Machine.set_tracer machine
    (Some
       (fun ev ->
         t.events_rev <- ev :: t.events_rev;
         t.count <- t.count + 1;
         t.cache <- None));
  t

let stop t =
  if t.active then begin
    Machine.set_tracer t.machine None;
    t.active <- false
  end

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
