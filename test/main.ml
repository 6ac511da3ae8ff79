(* The suite takes about 15 s of host time.  A test that never
   finishes (a retry loop that cannot succeed, a recovery that spins)
   fails the run after [time_limit] seconds, with a message, instead
   of hanging it. *)
let time_limit = 900

let () =
  (* Alcotest sends a running test's stderr to its log file: the
     message goes to the stderr the suite started with. *)
  let console = Unix.dup Unix.stderr in
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle
       (fun _ ->
         let msg =
           Printf.sprintf "test/main.exe: still running after %d s of host time: a test hangs\n"
             time_limit
         in
         ignore (Unix.write_substring console msg 0 (String.length msg) : int);
         Unix._exit 3));
  ignore (Unix.alarm time_limit : int)

let () =
  Alcotest.run "pactree"
    [
      ("des", Test_des.suite);
      ("nvm", Test_nvm.suite);
      ("pmalloc", Test_pmalloc.suite);
      ("pobj", Test_pobj.suite);
      ("art", Test_art.suite);
      ("pdlart_props", Test_pdlart_props.suite);
      ("data_node", Test_data_node.suite);
      ("crash_torture", Test_crash_torture.suite);
      ("crashmc", Test_crashmc.suite);
      ("eadr", Test_eadr.suite);
      ("tree", Test_tree.suite);
      ("baselines", Test_baselines.suite);
      ("workload", Test_workload.suite);
      ("svc", Test_svc.suite);
      ("obs", Test_obs.suite);
      ("registry", Test_registry.suite);
      ("smo_readers", Test_smo_readers.suite);
      ("stale_hits", Test_stale_hits.suite);
    ]
