(** Minimal JSON tree and emitter.

    The [--obs] dumps and the figure tables ([Experiments.Figures])
    are written as JSON without an external dependency.  Nothing in
    the tree reads JSON back. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(** Two-space indentation, one member per line, except that a list or
    object whose members are all scalars goes on one line.  A float is
    written with the fewest digits that read back as the same float
    (at most 17), an integral one with a [.0]; NaN and infinities,
    which JSON lacks, as [null]. *)
val to_string : t -> string

(** {!to_string} plus a trailing newline. *)
val write_file : string -> t -> unit
