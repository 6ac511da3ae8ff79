(* The figure pin: runs registry figures at [Scale.tiny] and writes
   their tables as FIGS_tiny.json, which the [@ci] alias diffs against
   the committed copy (root dune file).

     figs_tiny.exe run NAME... > PART    the named figures' tables
     figs_tiny.exe json PART... > FILE   every part as one JSON file

   Two [run] parts split the registry so that dune runs them on two
   cores; [json] fails unless the parts hold every registry figure
   exactly once, so a new figure cannot go unpinned.  Parts are
   marshalled tables, read back only by this executable. *)

module Figures = Experiments.Figures

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: names ->
      let tables =
        List.map
          (fun name -> (name, (List.assoc name Figures.registry) Experiments.Scale.tiny))
          names
      in
      set_binary_mode_out stdout true;
      Marshal.to_channel stdout (tables : (string * Figures.table list) list) []
  | "json" :: parts ->
      let figures =
        List.concat_map
          (fun path ->
            In_channel.with_open_bin path (fun ic ->
                (Marshal.from_channel ic : (string * Figures.table list) list)))
          parts
      in
      let names = List.map fst Figures.registry in
      if List.sort compare (List.map fst figures) <> List.sort compare names then
        failwith
          (Printf.sprintf "figs_tiny: the parts hold %s, the registry %s"
             (String.concat " " (List.map fst figures))
             (String.concat " " names));
      print_endline
        (Obs.Json.to_string
           (Figures.to_json (List.map (fun name -> (name, List.assoc name figures)) names)))
  | _ ->
      prerr_endline "usage: figs_tiny.exe run NAME... | json PART...";
      exit 2
