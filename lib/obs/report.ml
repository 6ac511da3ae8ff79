type entry = {
  e_index : string;
  e_mix : string;
  e_threads : int;
  e_keys : int;
  e_ops : int;
  e_elapsed_s : float;
  e_throughput_mops : float;
  e_p50_us : float;
  e_p99_us : float;
  e_p9999_us : float;
  e_mean_us : float;
  e_max_us : float;
  e_phase_pct : (string * float) list;
  e_phase_us : (string * float) list;
  e_flushes_per_op : float;
  e_flushes_elided_per_op : float;
  e_fences_per_op : float;
  e_media_read_bytes_per_op : float;
  e_media_write_bytes_per_op : float;
  e_read_amplification : float;
  e_write_amplification : float;
}

let schema_version = "pactree-bench/v1"

let entry_json e =
  Json.Obj
    [
      ("index", Json.String e.e_index);
      ("mix", Json.String e.e_mix);
      ("threads", Json.Int e.e_threads);
      ("keys", Json.Int e.e_keys);
      ("ops", Json.Int e.e_ops);
      ("sim_elapsed_s", Json.Float e.e_elapsed_s);
      ("sim_throughput_mops", Json.Float e.e_throughput_mops);
      ( "latency_us",
        Json.Obj
          [
            ("p50", Json.Float e.e_p50_us);
            ("p99", Json.Float e.e_p99_us);
            ("p99.99", Json.Float e.e_p9999_us);
            ("mean", Json.Float e.e_mean_us);
            ("max", Json.Float e.e_max_us);
          ] );
      ("phase_pct", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) e.e_phase_pct));
      ("phase_us", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) e.e_phase_us));
      ( "per_op",
        Json.Obj
          [
            ("flushes", Json.Float e.e_flushes_per_op);
            ("flushes_elided", Json.Float e.e_flushes_elided_per_op);
            ("fences", Json.Float e.e_fences_per_op);
            ("media_read_bytes", Json.Float e.e_media_read_bytes_per_op);
            ("media_write_bytes", Json.Float e.e_media_write_bytes_per_op);
          ] );
      ("read_amplification", Json.Float e.e_read_amplification);
      ("write_amplification", Json.Float e.e_write_amplification);
    ]

let to_json ~keys ~ops ~threads ~mix ~entries =
  Json.Obj
    [
      ("schema", Json.String schema_version);
      ( "scale",
        Json.Obj
          [
            ("keys", Json.Int keys);
            ("ops", Json.Int ops);
            ("threads", Json.Int threads);
            ("mix", Json.String mix);
          ] );
      ("results", Json.List (List.map entry_json entries));
    ]

(* ---------- validation ---------- *)

open Json.Check

let phase_names = List.map Span.phase_name Span.all_phases

let validate_entry i e =
  let ctx = Printf.sprintf "results[%d]" i in
  let* index = require_string ctx "index" e in
  let ctx = Printf.sprintf "results[%d] (%s)" i index in
  let* _ = require_string ctx "mix" e in
  let* _ = require_number ctx "threads" e in
  let* _ = require_number ctx "keys" e in
  let* ops = require_number ctx "ops" e in
  let* _ = require_number ctx "sim_elapsed_s" e in
  let* thr = require_number ctx "sim_throughput_mops" e in
  let* () = require_latency ctx "latency_us" e in
  let* phase_pct = require_obj ctx "phase_pct" e in
  let* sum =
    List.fold_left
      (fun acc name ->
        let* acc = acc in
        let* v = require_number (ctx ^ ".phase_pct") name phase_pct in
        if v < -0.01 || v > 100.01 then
          Error (Printf.sprintf "%s: phase_pct.%s = %g out of [0, 100]" ctx name v)
        else Ok (acc +. v))
      (Ok 0.0) phase_names
  in
  let* () =
    (* all-zero is legal only when nothing was attributed; otherwise
       the shares must partition the attributed time *)
    if sum = 0.0 || (sum > 99.0 && sum < 101.0) then Ok ()
    else Error (Printf.sprintf "%s: phase_pct sums to %.2f, expected ~100" ctx sum)
  in
  let* per_op = require_obj ctx "per_op" e in
  let* flushes = require_number (ctx ^ ".per_op") "flushes" per_op in
  let* elided = require_number (ctx ^ ".per_op") "flushes_elided" per_op in
  let* fences = require_number (ctx ^ ".per_op") "fences" per_op in
  let* _ = require_number (ctx ^ ".per_op") "media_read_bytes" per_op in
  let* _ = require_number (ctx ^ ".per_op") "media_write_bytes" per_op in
  let* () =
    if ops > 0.0 && thr <= 0.0 then Error (ctx ^ ": non-positive throughput")
    else Ok ()
  in
  if flushes < 0.0 || elided < 0.0 || fences < 0.0 then
    Error (ctx ^ ": negative per-op cost")
  else Ok ()

let validate json =
  let* schema = require_string "top-level" "schema" json in
  let* () =
    if schema = schema_version then Ok ()
    else Error (Printf.sprintf "schema %S, expected %S" schema schema_version)
  in
  let* scale = require_obj "top-level" "scale" json in
  let* _ = require_number "scale" "keys" scale in
  let* _ = require_number "scale" "ops" scale in
  let* _ = require_number "scale" "threads" scale in
  let* _ = require_string "scale" "mix" scale in
  match Json.member "results" json with
  | Some (Json.List []) -> Error "results: empty"
  | Some (Json.List entries) ->
      let rec go i = function
        | [] -> Ok ()
        | e :: rest ->
            let* () = validate_entry i e in
            go (i + 1) rest
      in
      go 0 entries
  | _ -> Error "missing results array"

let validate_file path = Result.bind (Json.read_file path) validate

let write_file = write_checked validate

let pp_entry ppf e =
  Format.fprintf ppf
    "@[<v>%-10s %s %d thr: %.3f Mops/s, p50 %.1f us, p99 %.1f us, p99.99 %.1f us@,\
     per op: %.2f flushes (%.2f redundant), %.2f fences, %.0f B read, %.0f B written \
     (amp %.2fx/%.2fx)@]"
    e.e_index e.e_mix e.e_threads e.e_throughput_mops e.e_p50_us e.e_p99_us e.e_p9999_us
    e.e_flushes_per_op e.e_flushes_elided_per_op e.e_fences_per_op
    e.e_media_read_bytes_per_op
    e.e_media_write_bytes_per_op e.e_read_amplification e.e_write_amplification
