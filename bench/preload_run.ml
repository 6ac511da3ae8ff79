(* Usage: preload_run.exe KEYS RUNS

   Prints the host microseconds per key of the fastest of RUNS
   preloads of KEYS keys ([Preload.cost]) and, in hexadecimal, the
   simulated time the preload ends at: a host-only change leaves it
   identical. *)

let () =
  match Sys.argv with
  | [| _; keys; runs |] ->
      let ns, _, sim = Preload.cost ~keys:(int_of_string keys) ~runs:(int_of_string runs) in
      Printf.printf "%.3f %h\n" (ns /. 1e3) sim
  | _ ->
      prerr_endline "usage: preload_run.exe KEYS RUNS";
      exit 2
