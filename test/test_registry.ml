(* The system and figure registries: every system's CLI id parses
   back to it, no two figures share a name, and a figure table refuses
   a ragged row and writes its rows at full precision. *)

module Factory = Experiments.Factory
module Figures = Experiments.Figures

let test_system_ids () =
  List.iter
    (fun sys ->
      Alcotest.(check bool)
        (Factory.id sys ^ " round-trips") true
        (Factory.of_string (Factory.id sys) = Some sys))
    Factory.all;
  let ids = List.map Factory.id Factory.all in
  Alcotest.(check int) "ids are distinct" (List.length ids)
    (List.length (List.sort_uniq compare ids))

let test_figure_names () =
  let names = List.map fst Experiments.Figures.registry in
  Alcotest.(check (list string)) "figure names are unique"
    (List.sort compare names) (List.sort_uniq compare names)

let test_table_width () =
  match Figures.table "t" ~label:"x" [ ("a", 2); ("b", 2) ] [ ("1", [ 1.0 ]) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a one-value row in a two-column table was accepted"

let test_table_json () =
  let t =
    Figures.table "Two rows" ~label:"threads"
      [ ("Mops", 2); ("GB", 3) ]
      [ ("1", [ 0.1 +. 0.2; 2.0 ]); ("8", [ 1.0 /. 3.0; 1e-7 ]) ]
  in
  Alcotest.(check string) "rendered"
    {|{
  "fig": [
    {
      "title": "Two rows",
      "rows": [
        {"threads": "1", "Mops": 0.30000000000000004, "GB": 2.0},
        {"threads": "8", "Mops": 0.3333333333333333, "GB": 1e-07}
      ]
    }
  ]
}|}
    (Obs.Json.to_string (Figures.to_json [ ("fig", [ t ]) ]))

let suite =
  [
    Alcotest.test_case "systems: of_string (id s) = Some s" `Quick test_system_ids;
    Alcotest.test_case "figures: names unique" `Quick test_figure_names;
    Alcotest.test_case "figures: a wrong-width row raises" `Quick test_table_width;
    Alcotest.test_case "figures: a table renders to full-precision JSON" `Quick
      test_table_json;
  ]
