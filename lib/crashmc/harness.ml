module Key = Pactree.Key
module Index = Baselines.Index_intf

type violation = { v_at : int; v_label : string; v_msg : string }

type report = {
  sut : string;
  ops : int;
  trace_events : int;
  stats : Enum.stats;
  checked : int;
  violations : violation list;
}

let ok r = r.violations = []

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>%s: %d ops, %d trace events, %d crash points, %d states (%d dup-suppressed, %d budget-truncated), %d checked, %d violations@]"
    r.sut r.ops r.trace_events r.stats.Enum.crash_points
    r.stats.Enum.states r.stats.Enum.duplicates r.stats.Enum.truncated_points
    r.checked (List.length r.violations);
  List.iteri
    (fun i v ->
      if i < 10 then
        Format.fprintf ppf "@,  [at=%d %s] %s" v.v_at v.v_label v.v_msg)
    r.violations;
  if List.length r.violations > 10 then
    Format.fprintf ppf "@,  ... and %d more" (List.length r.violations - 10)

(* ---------- workloads ---------- *)

(* Key construction is kept seed-deterministic: the point of a crashmc
   run is an exhaustive, reproducible state sweep, so workloads are
   generated up front from an explicit seed. *)
let insert_workload n = List.init n (fun i -> Oracle.Insert (Key.of_int (1000 + (i * 7)), i))

let mixed_workload ~seed n =
  let rng = Des.Rng.create ~seed:(Int64.of_int seed) in
  let live = ref [] and nlive = ref 0 in
  List.init n (fun i ->
      if !nlive > 0 && Des.Rng.int rng 4 = 0 then begin
        let j = Des.Rng.int rng !nlive in
        let k = List.nth !live j in
        live := List.filteri (fun idx _ -> idx <> j) !live;
        decr nlive;
        Oracle.Delete k
      end
      else begin
        let k = Key.of_int (Des.Rng.int rng 10_000) in
        if not (List.exists (Key.equal k) !live) then begin
          live := k :: !live;
          incr nlive
        end;
        Oracle.Insert (k, i)
      end)

(* ---------- the checker ---------- *)

let run ?(budget_per_point = 48) ?(max_states = 20_000) ?(max_violations = 20)
    ?(seed = 1) ~name ~machine ~(sut : Baselines.System.t) ~ops () =
  let index = sut.b_index in
  let trace = Trace.start machine in
  let history =
    List.map
      (fun op ->
        let start_seq = Trace.seq trace in
        Oracle.run_op index op;
        { Oracle.op; start_seq; end_seq = Trace.seq trace })
      ops
  in
  Trace.stop trace;
  let checked = ref 0 in
  let violations = ref [] in
  (* A state's verdict depends on how many ops completed before the
     crash and how many were in flight ([Oracle.check]): the same image
     is checked again under another split of the history. *)
  let context at =
    let per_op = List.length history + 1 in
    List.fold_left
      (fun acc e ->
        if e.Oracle.end_seq <= at then acc + per_op
        else if e.Oracle.start_seq < at then acc + 1
        else acc)
      0 history
  in
  let stats =
    Enum.iter ~budget_per_point ~seed:(Int64.of_int seed) ~context ~trace
      ~f:(fun st ->
        st.Enum.restore ();
        incr checked;
        let vs =
          match sut.b_recover () with
          | () ->
              Oracle.check ~history ~at:st.Enum.at
                ~lookup:(Index.lookup index)
                ~scan:(Index.scan index)
                ~invariants:sut.b_invariants
          | exception exn ->
              [ Printf.sprintf "recover raised %s" (Printexc.to_string exn) ]
        in
        List.iter
          (fun v_msg ->
            violations :=
              { v_at = st.Enum.at; v_label = st.Enum.label; v_msg } :: !violations)
          vs;
        if List.length !violations >= max_violations || !checked >= max_states
        then raise Enum.Stop)
      ()
  in
  {
    sut = name;
    ops = List.length ops;
    trace_events = Trace.seq trace;
    stats;
    checked = !checked;
    violations = List.rev !violations;
  }
