(** The registry of benchmarked systems: one enum and one constructor
    for PACTree and the four baselines of §6. *)

type sys = Pactree_sys | Pdlart_sys | Fastfair_sys | Bztree_sys | Fptree_sys

(** All systems, PACTree first. *)
val all : sys list

(** Display name for tables ("PACTree", "PDL-ART", ...). *)
val name : sys -> string

(** Lowercase identifier ("pactree", "pdlart", ...), as the CLI takes
    it and crashmc reports it. *)
val id : sys -> string

(** Inverse of {!id}; also accepts "pdl-art". *)
val of_string : string -> sys option

(** FPTree's reference binary lacks variable-length keys (paper §6),
    so string-key sweeps skip it. *)
val supports_strings : sys -> bool

(** PACTree's background updater as a runner service. *)
val pactree_service : Pactree.Tree.t -> Workload.Runner.service

(** [make_backend machine sys] builds the system on [machine]: the
    index with its recovery, invariant and quiesce hooks and its
    background service, if any.  [cfg] overrides PACTree's
    configuration for the factor analysis.

    [scale] is vestigial: it sized the pools before a pool's capacity
    became a bound, and is accepted and ignored so existing callers
    keep compiling. *)
val make_backend :
  Nvm.Machine.t ->
  ?string_keys:bool ->
  ?scale:Scale.t ->
  ?cfg:Pactree.Tree.config ->
  sys ->
  Baselines.System.t
