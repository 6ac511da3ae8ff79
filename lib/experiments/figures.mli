(** One generator per table/figure of the paper's evaluation.

    Each prints the same rows/series the paper plots, at the given
    {!Scale.t}; DESIGN.md §3 maps ids to paper sections and
    EXPERIMENTS.md records paper-vs-measured shapes. *)

val fig2 : Scale.t -> unit
(** FastFair under snoop vs directory coherence (FH5). *)

val fig3 : Scale.t -> unit
(** PDL-ART insert-only: PMDK vs volatile allocator (GS1). *)

val fig4 : Scale.t -> unit
(** Lookup throughput + NVM reads, FastFair vs PDL-ART (GA1). *)

val fig5 : Scale.t -> unit
(** Scan throughput + NVM reads (GA5). *)

val fig6 : Scale.t -> unit
(** FPTree HTM aborts vs data size and threads (GC3). *)

val fig9 : Scale.t -> unit
(** YCSB sweep, string keys. *)

val fig10 : Scale.t -> unit
(** YCSB sweep, integer keys. *)

val fig11 : Scale.t -> unit
(** Low-bandwidth NVM machine (§6.2). *)

val fig12 : Scale.t -> unit
(** Factor analysis (§6.3). *)

val fig13 : Scale.t -> unit
(** Tail latency (§6.4). *)

val fig14 : Scale.t -> unit
(** Single-thread throughput (§6.5). *)

val fig15 : Scale.t -> unit
(** Zipfian-coefficient sweep (§6.6). *)

val eadr : Scale.t -> unit
(** §3.5 discussion: ADR vs eADR machine modes. *)

val fh5 : Scale.t -> unit
(** §3.1.1 remote-read coherence-traffic measurement. *)

val sec6_7 : Scale.t -> unit
(** Jump-node distance distribution (§6.7). *)

val sec6_8 : ?rounds:int -> Scale.t -> unit
(** Crash-injection recovery test (§6.8): [rounds] (default 100)
    injected crashes, each followed by recovery and checks. *)

(** Every generator above by name, in suite order: the one figure list
    that [pactree_bench figure] and [bench/main.exe] read. *)
val registry : (string * (Scale.t -> unit)) list
