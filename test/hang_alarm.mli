(** [arm ()] has the calling test runner print "test/NAME: still
    running after 900 s of host time: a test hangs" to the stderr it
    started with and exit with code 3 once it has run 900 s of host
    time (the runners take seconds).  Each runner arms it before its
    first test. *)
val arm : unit -> unit
