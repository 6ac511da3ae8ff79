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

let capacities keys =
  (* sized for the string layout (4KB data-node class, half-occupancy
     after splits, plus the run phase's fresh inserts), with room for
     the out-of-node records of the baselines *)
  let data = max (1 lsl 22) (keys * 384) in
  let search = max (1 lsl 21) (keys * 96) in
  (data, search)

let make ~keys ~ops ~thread_counts =
  let data_capacity, search_capacity = capacities keys in
  { keys; ops; thread_counts; data_capacity; search_capacity }

let quick = make ~keys:150_000 ~ops:60_000 ~thread_counts:[ 1; 28; 56 ]

let full =
  make ~keys:400_000 ~ops:200_000 ~thread_counts:[ 1; 4; 8; 16; 28; 56; 112 ]

let tiny = make ~keys:8_000 ~ops:8_000 ~thread_counts:[ 1; 8 ]

(* every materialised crash state blits the full image of every pool *)
let crashmc =
  {
    keys = 0;
    ops = 0;
    thread_counts = [];
    data_capacity = 1 lsl 18;
    search_capacity = 1 lsl 18;
  }
