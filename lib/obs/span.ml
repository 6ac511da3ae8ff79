type phase =
  | Trie_search
  | Dnode_scan
  | Dnode_insert
  | Smo
  | Log_replay
  | Alloc
  | Flush_wait
  | Recovery
  | Svc_queue

let phase_name = function
  | Trie_search -> "trie_search"
  | Dnode_scan -> "dnode_scan"
  | Dnode_insert -> "dnode_insert"
  | Smo -> "smo"
  | Log_replay -> "log_replay"
  | Alloc -> "alloc"
  | Flush_wait -> "flush_wait"
  | Recovery -> "recovery"
  | Svc_queue -> "svc_queue"

let all_phases =
  [
    Trie_search;
    Dnode_scan;
    Dnode_insert;
    Smo;
    Log_replay;
    Alloc;
    Flush_wait;
    Recovery;
    Svc_queue;
  ]

let phase_index = function
  | Trie_search -> 0
  | Dnode_scan -> 1
  | Dnode_insert -> 2
  | Smo -> 3
  | Log_replay -> 4
  | Alloc -> 5
  | Flush_wait -> 6
  | Recovery -> 7
  | Svc_queue -> 8

let n_phases = 9

type acc = { mutable count : int; mutable self : float }

type frame = {
  f_phase : phase;
  f_start : float;
  f_stack : string; (* ";"-separated path including this phase *)
  mutable f_child_time : float;
}

type t = {
  machine : Nvm.Machine.t option;
  accs : acc array; (* indexed by phase_index *)
  stacks : (int, frame list ref) Hashtbl.t; (* simulated thread id -> span stack *)
  folded : (string, float ref) Hashtbl.t; (* collapsed stack -> self seconds *)
}

let create ?machine () =
  {
    machine;
    accs = Array.init n_phases (fun _ -> { count = 0; self = 0.0 });
    stacks = Hashtbl.create 16;
    folded = Hashtbl.create 64;
  }

let reset t =
  Array.iter
    (fun a ->
      a.count <- 0;
      a.self <- 0.0)
    t.accs;
  Hashtbl.reset t.stacks;
  Hashtbl.reset t.folded

(* ---------- global installation ---------- *)

let current : t option ref = ref None

let leaf_on t phase seconds =
  let acc = t.accs.(phase_index phase) in
  acc.count <- acc.count + 1;
  acc.self <- acc.self +. seconds;
  let tid = Des.Sched.current_id () in
  let stack =
    match Hashtbl.find_opt t.stacks tid with
    | Some { contents = top :: _ } ->
        top.f_child_time <- top.f_child_time +. seconds;
        top.f_stack ^ ";" ^ phase_name phase
    | _ -> phase_name phase
  in
  match Hashtbl.find_opt t.folded stack with
  | Some r -> r := !r +. seconds
  | None -> Hashtbl.add t.folded stack (ref seconds)

let install t =
  (match !current with
  | Some old -> (
      match old.machine with
      | Some m -> Nvm.Machine.set_wait_observer m None
      | None -> ())
  | None -> ());
  current := Some t;
  match t.machine with
  | Some m ->
      Nvm.Machine.set_wait_observer m (Some (fun seconds -> leaf_on t Flush_wait seconds))
  | None -> ()

let uninstall t =
  match !current with
  | Some cur when cur == t ->
      (match t.machine with
      | Some m -> Nvm.Machine.set_wait_observer m None
      | None -> ());
      current := None
  | _ -> ()

let leaf phase seconds =
  match !current with Some t -> leaf_on t phase seconds | None -> ()

let current_stack () =
  match !current with
  | None -> None
  | Some t -> (
      match Hashtbl.find_opt t.stacks (Des.Sched.current_id ()) with
      | Some { contents = top :: _ } -> Some top.f_stack
      | _ -> None)

(* ---------- spans ---------- *)

(* Effective clock of the calling simulated thread: the scheduler's
   clock plus the thread's accumulated [charge]s, so span boundaries
   see cheap costs (cache hits, CPU work) without a context switch. *)
let clock () =
  match Des.Sched.self () with
  | Some s -> Des.Sched.now s +. Des.Sched.pending_charge ()
  | None -> 0.0

let thread_stack t =
  let tid = Des.Sched.current_id () in
  match Hashtbl.find_opt t.stacks tid with
  | Some r -> r
  | None ->
      let r = ref [] in
      Hashtbl.add t.stacks tid r;
      r

let add_folded t stack seconds =
  if seconds > 0.0 then
    match Hashtbl.find_opt t.folded stack with
    | Some r -> r := !r +. seconds
    | None -> Hashtbl.add t.folded stack (ref seconds)

let enter t phase =
  let stack = thread_stack t in
  let path =
    match !stack with
    | top :: _ -> top.f_stack ^ ";" ^ phase_name phase
    | [] -> phase_name phase
  in
  let frame =
    {
      f_phase = phase;
      f_start = clock ();
      f_stack = path;
      f_child_time = 0.0;
    }
  in
  stack := frame :: !stack

let exit_span t =
  let stack = thread_stack t in
  match !stack with
  | [] -> () (* unbalanced exit: recorder was swapped mid-span *)
  | frame :: rest ->
      stack := rest;
      let total = clock () -. frame.f_start in
      let self = Float.max 0.0 (total -. frame.f_child_time) in
      let acc = t.accs.(phase_index frame.f_phase) in
      acc.count <- acc.count + 1;
      acc.self <- acc.self +. self;
      add_folded t frame.f_stack self;
      match rest with
      | parent :: _ -> parent.f_child_time <- parent.f_child_time +. total
      | [] -> ()

let start phase =
  let recorder = !current in
  (match recorder with Some t -> enter t phase | None -> ());
  recorder

let stop = function Some t -> exit_span t | None -> ()

let with_phase phase f =
  let span = start phase in
  match f () with
  | v ->
      stop span;
      v
  | exception e ->
      stop span;
      raise e

(* ---------- reporting ---------- *)

type row = { r_phase : phase; r_count : int; r_seconds : float }

let rows t =
  List.map
    (fun p ->
      let a = t.accs.(phase_index p) in
      { r_phase = p; r_count = a.count; r_seconds = a.self })
    all_phases

let attributed_seconds t = Array.fold_left (fun acc a -> acc +. a.self) 0.0 t.accs

let percentages t =
  let total = attributed_seconds t in
  List.map
    (fun p ->
      let a = t.accs.(phase_index p) in
      (p, if total > 0.0 then 100.0 *. a.self /. total else 0.0))
    all_phases

let collapsed t =
  let entries = Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.folded [] in
  List.sort compare entries

let write_collapsed t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun (stack, seconds) ->
          (* flamegraph.pl wants integer sample counts: use microseconds *)
          let us = int_of_float (Float.round (seconds *. 1e6)) in
          if us > 0 then Printf.fprintf oc "%s %d\n" stack us)
        (collapsed t))

let pp_table ppf t =
  let total = attributed_seconds t in
  Format.fprintf ppf "@[<v>%-14s %8s %10s %7s@," "phase" "spans" "self(us)" "%";
  List.iter
    (fun { r_phase; r_count; r_seconds } ->
      let pct = if total > 0.0 then 100.0 *. r_seconds /. total else 0.0 in
      Format.fprintf ppf "%-14s %8d %10.1f %6.1f%%@," (phase_name r_phase) r_count
        (r_seconds *. 1e6) pct)
    (rows t);
  Format.fprintf ppf "%-14s %8s %10.1f %6.1f%%@]" "total" "" (total *. 1e6)
    (if total > 0.0 then 100.0 else 0.0)

let to_json t =
  let total = attributed_seconds t in
  Json.Obj
    [
      ("attributed_seconds", Json.Float total);
      ( "phases",
        Json.Obj
          (List.map
             (fun { r_phase; r_count; r_seconds } ->
               ( phase_name r_phase,
                 Json.Obj
                   [
                     ("count", Json.Int r_count);
                     ("self_seconds", Json.Float r_seconds);
                     ( "pct",
                       Json.Float
                         (if total > 0.0 then 100.0 *. r_seconds /. total else 0.0) );
                   ] ))
             (rows t)) );
      ( "collapsed",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) (collapsed t)) );
    ]
