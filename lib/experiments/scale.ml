(** Workload scales.

    The paper runs 64M keys / 64M operations on a 3TB-NVM testbed;
    under the discrete-event simulator the suite is run at reduced
    scale (same code paths, same mechanisms) so the whole set of
    figures regenerates in minutes.  [quick] is the default; [full]
    takes tens of minutes. *)

type t = {
  keys : int;  (** preloaded key count (the paper's 64M) *)
  ops : int;  (** operations per run (the paper's 64M) *)
  thread_counts : int list;  (** x-axis of the scalability figures *)
  data_capacity : int;
  search_capacity : int;
}

let make ~keys ~ops ~thread_counts =
  let bound = Nvm.Pool.max_capacity in
  { keys; ops; thread_counts; data_capacity = bound; search_capacity = bound }

let quick = make ~keys:150_000 ~ops:60_000 ~thread_counts:[ 1; 28; 56 ]

let full =
  make ~keys:400_000 ~ops:200_000 ~thread_counts:[ 1; 4; 8; 16; 28; 56; 112 ]

let tiny = make ~keys:8_000 ~ops:8_000 ~thread_counts:[ 1; 8 ]
