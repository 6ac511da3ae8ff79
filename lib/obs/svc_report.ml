type lat = {
  l_p50_us : float;
  l_p99_us : float;
  l_p9999_us : float;
  l_mean_us : float;
  l_max_us : float;
}

type point = {
  p_offered_mops : float;
  p_achieved_mops : float;
  p_generated : int;
  p_completed : int;
  p_rejected : int;
  p_rejection_rate : float;
  p_queue : lat;
  p_service : lat;
  p_total : lat;
  p_shard_completed : int list;
  p_imbalance : float;
  p_fences_per_op : float;
  p_flushes_per_op : float;
}

type config = {
  c_index : string;
  c_shards : int;
  c_workers_per_shard : int;
  c_queue_capacity : int;
  c_admission : string;
  c_arrival : string;
  c_keys : int;
  c_ops : int;
  c_mix : string;
  c_theta : float;
  c_numa : int;
}

let schema_version = "pactree-svc/v1"

let lat_json l =
  Json.Obj
    [
      ("p50", Json.Float l.l_p50_us);
      ("p99", Json.Float l.l_p99_us);
      ("p99.99", Json.Float l.l_p9999_us);
      ("mean", Json.Float l.l_mean_us);
      ("max", Json.Float l.l_max_us);
    ]

let point_json p =
  Json.Obj
    [
      ("offered_mops", Json.Float p.p_offered_mops);
      ("achieved_mops", Json.Float p.p_achieved_mops);
      ("generated", Json.Int p.p_generated);
      ("completed", Json.Int p.p_completed);
      ("rejected", Json.Int p.p_rejected);
      ("rejection_rate", Json.Float p.p_rejection_rate);
      ("queue_latency_us", lat_json p.p_queue);
      ("service_latency_us", lat_json p.p_service);
      ("total_latency_us", lat_json p.p_total);
      ("shard_completed", Json.List (List.map (fun n -> Json.Int n) p.p_shard_completed));
      ("imbalance", Json.Float p.p_imbalance);
      ( "per_op",
        Json.Obj
          [
            ("fences", Json.Float p.p_fences_per_op);
            ("flushes", Json.Float p.p_flushes_per_op);
          ] );
    ]

let to_json c points =
  Json.Obj
    [
      ("schema", Json.String schema_version);
      ( "service",
        Json.Obj
          [
            ("index", Json.String c.c_index);
            ("shards", Json.Int c.c_shards);
            ("workers_per_shard", Json.Int c.c_workers_per_shard);
            ("queue_capacity", Json.Int c.c_queue_capacity);
            ("admission", Json.String c.c_admission);
            ("arrival", Json.String c.c_arrival);
            ("keys", Json.Int c.c_keys);
            ("ops", Json.Int c.c_ops);
            ("mix", Json.String c.c_mix);
            ("theta", Json.Float c.c_theta);
            ("numa", Json.Int c.c_numa);
          ] );
      ("sweep", Json.List (List.map point_json points));
    ]

(* ---------- validation ---------- *)

open Json.Check

let validate_point shards i p =
  let ctx = Printf.sprintf "sweep[%d]" i in
  let* offered = require_number ctx "offered_mops" p in
  let* achieved = require_number ctx "achieved_mops" p in
  let* generated = require_number ctx "generated" p in
  let* completed = require_number ctx "completed" p in
  let* rejected = require_number ctx "rejected" p in
  let* reject_rate = require_number ctx "rejection_rate" p in
  let* () = require_latency ctx "queue_latency_us" p in
  let* () = require_latency ctx "service_latency_us" p in
  let* () = require_latency ctx "total_latency_us" p in
  let* imbalance = require_number ctx "imbalance" p in
  let* per_op = require_obj ctx "per_op" p in
  let* fences = require_number (ctx ^ ".per_op") "fences" per_op in
  let* flushes = require_number (ctx ^ ".per_op") "flushes" per_op in
  let* () =
    match Json.member "shard_completed" p with
    | Some (Json.List l) when List.length l = shards -> Ok ()
    | Some (Json.List l) ->
        Error
          (Printf.sprintf "%s: shard_completed has %d entries, expected %d" ctx
             (List.length l) shards)
    | _ -> Error (ctx ^ ": missing shard_completed array")
  in
  let* () =
    if offered <= 0.0 then Error (ctx ^ ": non-positive offered load")
    else if achieved < 0.0 || achieved > offered *. 1.02 then
      Error
        (Printf.sprintf "%s: achieved %.3f outside [0, offered=%.3f]" ctx achieved
           offered)
    else Ok ()
  in
  let* () =
    if reject_rate < -1e-9 || reject_rate > 1.0 +. 1e-9 then
      Error (ctx ^ ": rejection_rate outside [0, 1]")
    else if completed +. rejected > generated +. 0.5 then
      Error (ctx ^ ": completed + rejected > generated")
    else Ok ()
  in
  if imbalance < 1.0 -. 1e-9 then Error (ctx ^ ": imbalance < 1")
  else if fences < 0.0 || flushes < 0.0 then
    Error (ctx ^ ": negative per-op accounting")
  else Ok offered

let validate json =
  let* schema = require_string "top-level" "schema" json in
  let* () =
    if schema = schema_version then Ok ()
    else Error (Printf.sprintf "schema %S, expected %S" schema schema_version)
  in
  let* service = require_obj "top-level" "service" json in
  let* _ = require_string "service" "index" service in
  let* shards = require_number "service" "shards" service in
  let* _ = require_number "service" "workers_per_shard" service in
  let* _ = require_number "service" "queue_capacity" service in
  let* _ = require_string "service" "admission" service in
  let* _ = require_string "service" "arrival" service in
  let* _ = require_number "service" "keys" service in
  let* _ = require_number "service" "ops" service in
  let* _ = require_string "service" "mix" service in
  let* _ = require_number "service" "theta" service in
  let* _ = require_number "service" "numa" service in
  match Json.member "sweep" json with
  | Some (Json.List []) -> Error "sweep: empty"
  | Some (Json.List points) ->
      let rec go i last = function
        | [] -> Ok ()
        | p :: rest ->
            let* offered = validate_point (int_of_float shards) i p in
            let* () =
              if offered <= last then
                Error
                  (Printf.sprintf "sweep[%d]: offered loads not strictly increasing" i)
              else Ok ()
            in
            go (i + 1) offered rest
      in
      go 0 neg_infinity points
  | _ -> Error "missing sweep array"

let validate_file path = Result.bind (Json.read_file path) validate

let write_file = write_checked validate

let pp_point ppf p =
  Format.fprintf ppf
    "%8.3f %9.3f %6.1f%% %9.1f %9.1f %9.1f %9.1f %6.2f"
    p.p_offered_mops p.p_achieved_mops
    (100.0 *. p.p_rejection_rate)
    p.p_queue.l_p50_us p.p_queue.l_p99_us p.p_service.l_p99_us p.p_total.l_p99_us
    p.p_imbalance
