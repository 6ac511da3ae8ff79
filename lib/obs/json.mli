(** Minimal JSON tree, emitter and parser.

    The bench output (BENCH_pactree.json, --obs dumps) must be
    machine-readable and schema-checkable without adding external
    dependencies, so lib/obs carries its own ~RFC 8259 subset:
    UTF-8 passthrough strings, no exponent-free float restrictions,
    integers kept distinct from floats on emission. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(** Pretty-printed (2-space indent) emission. *)
val pp : Format.formatter -> t -> unit

val to_string : t -> string

(** Parse; [Error msg] carries an offset-annotated message. *)
val of_string : string -> (t, string) result

(** [member key json] for [Obj] values. *)
val member : string -> t -> t option

(** Numeric accessor: accepts both [Int] and [Float]. *)
val to_number : t -> float option

(** Parse a whole file. *)
val read_file : string -> (t, string) result

(** Pretty-printed emission plus a trailing newline. *)
val write_file : string -> t -> unit

(** Combinators for schema validators.  Every error names its context
    ([ctx], e.g. ["results[0] (PACTree)"]) and the offending key. *)
module Check : sig
  val ( let* ) : ('a, 'e) result -> ('a -> ('b, 'e) result) -> ('b, 'e) result

  (** A finite [Int] or [Float] field. *)
  val require_number : string -> string -> t -> (float, string) result

  val require_string : string -> string -> t -> (string, string) result

  val require_obj : string -> string -> t -> (t, string) result

  (** A latency object [{p50, p99, p99.99, mean, max}] whose
      percentiles are non-negative and monotone up to [max]. *)
  val require_latency : string -> string -> t -> (unit, string) result

  (** [write_checked validate path json] writes [json] with
      {!write_file}, re-reads it and raises [Failure] if [validate]
      rejects what landed on disk. *)
  val write_checked : (t -> (unit, string) result) -> string -> t -> unit
end
