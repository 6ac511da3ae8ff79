module Key = Pactree.Key
module Index = Baselines.Index_intf

module KMap = Map.Make (struct
  type t = Key.t

  let compare = Key.compare
end)

type op = Insert of Key.t * int | Delete of Key.t

type entry = { op : op; start_seq : int; end_seq : int }

type history = entry list

let op_key = function Insert (k, _) -> k | Delete k -> k

let run_op index = function
  | Insert (k, v) -> Index.insert index k v
  | Delete k -> ignore (Index.delete index k)

let apply map = function
  | Insert (k, v) -> KMap.add k v map
  | Delete k -> KMap.remove k map

(* State of the acknowledged history at a crash before trace event
   [at]: ops whose last persistence event precedes the crash point are
   decided (their effect must survive — the persistent state is
   indistinguishable from one where the op returned and was
   acknowledged); ops spanning the point are in flight (each may or
   may not have taken effect, in program order — ops sharing one
   trace window are in flight together); later ops never started.
   The universe collects every key the history may have touched by
   [at]. *)
let split_at history ~at =
  let rec go decided inflight universe = function
    | [] -> (decided, List.rev inflight, universe)
    | e :: rest ->
        if e.end_seq <= at then
          go (apply decided e.op) inflight (KMap.add (op_key e.op) () universe) rest
        else if e.start_seq < at then
          go decided (e.op :: inflight) (KMap.add (op_key e.op) () universe) rest
        else (decided, List.rev inflight, universe)
  in
  go KMap.empty [] KMap.empty history

let pp_value = function Some v -> string_of_int v | None -> "absent"

let check ~history ~at ~lookup ~scan ~invariants =
  let violations = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  (try invariants ()
   with exn -> fail "invariant check failed: %s" (Printexc.to_string exn));
  let decided, inflight, universe = split_at history ~at in
  (* Reachable states: the decided map plus some in-order prefix of
     the in-flight ops, applied jointly.  Recovery replays the
     interrupted batch up to its first hole, so e.g. the second batch
     member cannot have applied without the first — validating keys
     independently would accept exactly such hole-skipping states.
     [states.(i)] is the map after the length-[i] prefix. *)
  let nprefix = List.length inflight + 1 in
  let states = Array.make nprefix decided in
  List.iteri (fun i op -> states.(i + 1) <- apply states.(i) op) inflight;
  let value_at i k = KMap.find_opt k states.(i) in
  let all_prefixes = List.init nprefix Fun.id in
  let values_over prefixes k =
    List.sort_uniq compare (List.map (fun i -> value_at i k) prefixes)
  in
  let observed = ref [] and lookups_clean = ref true in
  let check_key k =
    match lookup k with
    | got ->
        observed := (k, got) :: !observed;
        let want = values_over all_prefixes k in
        if not (List.mem got want) then begin
          lookups_clean := false;
          fail "key %a: lookup %s, expected one of {%s}"
            (fun () k -> Format.asprintf "%a" Key.pp k)
            k (pp_value got)
            (String.concat ", " (List.map pp_value want))
        end
    | exception exn ->
        lookups_clean := false;
        fail "key %a: lookup raised %s"
          (fun () k -> Format.asprintf "%a" Key.pp k)
          k (Printexc.to_string exn)
  in
  KMap.iter (fun k () -> check_key k) universe;
  (* Joint consistency: one prefix must explain every lookup at once. *)
  let feasible =
    List.filter
      (fun i -> List.for_all (fun (k, got) -> value_at i k = got) !observed)
      all_prefixes
  in
  if feasible = [] && !lookups_clean then
    fail
      "state matches no in-order prefix of the %d in-flight ops: every key is \
       individually reachable but no single prefix explains all lookups jointly"
      (List.length inflight);
  (* Scans read the same recovered image as the lookups, so pin them
     to the lookup-feasible prefixes; if none survived, earlier
     violations already cover it — fall back to all prefixes rather
     than cascade noise. *)
  let prefixes = if feasible = [] then all_prefixes else feasible in
  let allowed k = values_over prefixes k in
  (* Range scan: complete, duplicate-free, sorted, no phantoms. *)
  let scan_from = Option.map fst (KMap.min_binding_opt universe) in
  (match scan_from with
  | None -> ()
  | Some from -> (
      let wanted = KMap.cardinal decided + List.length inflight + 2 in
      match scan from wanted with
      | results ->
          let rec sorted = function
            | (a, _) :: ((b, _) :: _ as rest) ->
                if Key.compare a b >= 0 then
                  fail "scan not strictly sorted at %a" (fun () k ->
                      Format.asprintf "%a" Key.pp k)
                    b;
                sorted rest
            | _ -> ()
          in
          sorted results;
          List.iter
            (fun (k, v) ->
              let want = allowed k in
              if not (List.exists (function Some _ as w -> w = Some v | None -> false) want)
              then
                if want = [ None ] then
                  fail "scan: phantom key %a" (fun () k ->
                      Format.asprintf "%a" Key.pp k)
                    k
                else
                  fail "scan: key %a has value %d, expected one of {%s}"
                    (fun () k -> Format.asprintf "%a" Key.pp k)
                    k v
                    (String.concat ", " (List.map pp_value want)))
            results;
          let seen = List.fold_left (fun m (k, _) -> KMap.add k () m) KMap.empty results in
          KMap.iter
            (fun k _ ->
              let may_be_absent = List.mem None (allowed k) in
              if (not may_be_absent) && not (KMap.mem k seen) then
                fail "scan: acknowledged key %a missing" (fun () k ->
                    Format.asprintf "%a" Key.pp k)
                  k)
            decided
      | exception exn -> fail "scan raised %s" (Printexc.to_string exn)));
  List.rev !violations
