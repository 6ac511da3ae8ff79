module Machine = Nvm.Machine

(* A store to a non-volatile line makes the storing thread the line's
   "owner": it owes a clwb before its own next ordering point.  Any
   thread's clwb of the line discharges the obligation (the staged
   snapshot contains the store); an ordering point (fence) by the
   owner with the obligation still open is a persist-order hazard —
   exactly the pattern behind missing-flush crash bugs.  An eADR drain
   discharges like a clwb, and eADR machines emit no fence events, so
   the sanitizer is naturally silent there (stores are already
   durable). *)

type report = {
  r_pool : int;
  r_line : int;
  r_tid : int;
  r_stack : string option;  (* span path of the unflushed store *)
  r_count : int;
}

type pending = { p_tid : int; p_stack : string option }

type state = {
  machine : Machine.t;
  mutable unsubscribe : unit -> unit;
  owner : (int * int, pending) Hashtbl.t; (* (pool, line) -> last storer *)
  by_tid : (int, (int * int, unit) Hashtbl.t) Hashtbl.t;
  suppress : (int, int) Hashtbl.t; (* tid -> depth *)
  found : (int * int * string option, int ref * int) Hashtbl.t;
      (* (pool, line, stack) -> (count, sample tid) *)
}

let current : state option ref = ref None

let active () = match !current with Some _ -> true | None -> false

let suppressed st tid =
  match Hashtbl.find_opt st.suppress tid with Some d -> d > 0 | None -> false

let tid_set st tid =
  match Hashtbl.find_opt st.by_tid tid with
  | Some s -> s
  | None ->
      let s = Hashtbl.create 16 in
      Hashtbl.add st.by_tid tid s;
      s

let drop_pending st key =
  match Hashtbl.find_opt st.owner key with
  | None -> ()
  | Some p ->
      Hashtbl.remove st.owner key;
      (match Hashtbl.find_opt st.by_tid p.p_tid with
      | Some s -> Hashtbl.remove s key
      | None -> ())

let on_event st = function
  | Machine.Store { tid; pool; line } ->
      if not (suppressed st tid) then begin
        let key = (pool, line) in
        (match Hashtbl.find_opt st.owner key with
        | Some p when p.p_tid <> tid -> (
            match Hashtbl.find_opt st.by_tid p.p_tid with
            | Some s -> Hashtbl.remove s key
            | None -> ())
        | _ -> ());
        Hashtbl.replace st.owner key { p_tid = tid; p_stack = Obs.Span.current_stack () };
        Hashtbl.replace (tid_set st tid) key ()
      end
  | Machine.Clwb { pool; line; _ } | Machine.Drain { pool; line; _ } ->
      drop_pending st (pool, line)
  | Machine.Fence { tid } -> (
      match Hashtbl.find_opt st.by_tid tid with
      | None -> ()
      | Some s ->
          let flagged = Hashtbl.fold (fun key () acc -> key :: acc) s [] in
          List.iter
            (fun ((pool, line) as key) ->
              let stack =
                match Hashtbl.find_opt st.owner key with
                | Some p -> p.p_stack
                | None -> None
              in
              (match Hashtbl.find_opt st.found (pool, line, stack) with
              | Some (count, _) -> incr count
              | None -> Hashtbl.add st.found (pool, line, stack) (ref 1, tid));
              Hashtbl.remove st.owner key)
            flagged;
          Hashtbl.reset s)

let enable machine =
  (match !current with Some st -> st.unsubscribe () | None -> ());
  let st =
    {
      machine;
      unsubscribe = ignore;
      owner = Hashtbl.create 1024;
      by_tid = Hashtbl.create 64;
      suppress = Hashtbl.create 64;
      found = Hashtbl.create 64;
    }
  in
  st.unsubscribe <- Machine.subscribe machine (on_event st);
  current := Some st

let disable machine =
  match !current with
  | Some st when st.machine == machine ->
      st.unsubscribe ();
      current := None
  | _ -> ()

let clear () =
  match !current with
  | None -> ()
  | Some st ->
      Hashtbl.reset st.owner;
      Hashtbl.reset st.by_tid;
      Hashtbl.reset st.found

let with_suppressed f =
  match !current with
  | None -> f ()
  | Some st ->
      let tid = Des.Sched.current_id () in
      let depth = match Hashtbl.find_opt st.suppress tid with Some d -> d | None -> 0 in
      Hashtbl.replace st.suppress tid (depth + 1);
      Fun.protect ~finally:(fun () -> Hashtbl.replace st.suppress tid depth) f

let reports () =
  match !current with
  | None -> []
  | Some st ->
      Hashtbl.fold
        (fun (pool, line, stack) (count, tid) acc ->
          { r_pool = pool; r_line = line; r_tid = tid; r_stack = stack; r_count = !count }
          :: acc)
        st.found []
      |> List.sort (fun a b ->
             compare (b.r_count, a.r_pool, a.r_line) (a.r_count, b.r_pool, b.r_line))

let total () = List.fold_left (fun acc r -> acc + r.r_count) 0 (reports ())

let pp_report ppf r =
  Format.fprintf ppf "unflushed-at-fence: pool %d line %d (byte %d) thread %d in %s (x%d)"
    r.r_pool r.r_line (r.r_line * 64) r.r_tid
    (Option.value ~default:"<no span>" r.r_stack)
    r.r_count
