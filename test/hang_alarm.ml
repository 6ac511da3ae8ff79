(* A test runner that never finishes (a retry loop that cannot
   succeed, a recovery that spins, a split that stalls) fails the run
   after [time_limit] seconds of host time, with a message, instead of
   hanging it. *)
let time_limit = 900

let arm () =
  let name = "test/" ^ Filename.basename Sys.executable_name in
  (* Alcotest sends a running test's stderr to its log file: the
     message goes to the stderr the runner started with. *)
  let console = Unix.dup Unix.stderr in
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle
       (fun _ ->
         let msg =
           Printf.sprintf "%s: still running after %d s of host time: a test hangs\n" name
             time_limit
         in
         ignore (Unix.write_substring console msg 0 (String.length msg) : int);
         Unix._exit 3));
  ignore (Unix.alarm time_limit : int)
