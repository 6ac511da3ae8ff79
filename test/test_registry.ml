(* The system and figure registries: every system's CLI id parses
   back to it, and no two figures share a name. *)

module Factory = Experiments.Factory

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

let suite =
  [
    Alcotest.test_case "systems: of_string (id s) = Some s" `Quick test_system_ids;
    Alcotest.test_case "figures: names unique" `Quick test_figure_names;
  ]
