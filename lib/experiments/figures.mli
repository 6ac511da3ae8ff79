(** One generator per table/figure of the paper's evaluation.

    Each returns the rows the paper plots, at the given {!Scale.t}, as
    {!table}s; DESIGN.md §3 maps names to paper sections and
    EXPERIMENTS.md records paper-vs-measured shapes. *)

(** A title, the header of the label column, value columns (name and
    the decimals {!pp_table} prints), and rows of a label plus one
    float per column. *)
type table = private {
  title : string;
  label : string;
  columns : (string * int) list;
  rows : (string * float list) list;
}

(** [table title ~label columns rows]; raises [Invalid_argument] if a
    row's width differs from [columns]'. *)
val table :
  string -> label:string -> (string * int) list -> (string * float list) list -> table

(** A blank line, [=== title ===], the header, then one line per row:
    the label left-aligned, each value right-aligned at its column's
    decimals. *)
val pp_table : Format.formatter -> table -> unit

(** [to_json figures]: an object with one member per [(name, tables)]
    in order, each a list of [{title, rows}] whose rows are objects
    from column name to value (the label as a string), every float at
    full precision. *)
val to_json : (string * table list) list -> Obs.Json.t

(** Crash-injection recovery test (§6.8): [rounds] (default 100)
    injected crashes, each followed by recovery, the invariant check
    and a lookup of every acknowledged key.  Its row holds the failure
    count; a non-zero count raises [Failure] naming the first failure
    and the seed. *)
val sec6_8 : ?rounds:int -> Scale.t -> table list

(** Every generator by name, in suite order: the one figure list that
    [bench/main.exe] runs and [FIGS_tiny.json] pins.
    - [fig2]: FastFair under snoop vs directory coherence (FH5);
    - [fig3]: PDL-ART insert-only, PMDK vs volatile allocator (GS1);
    - [fig4]: lookup throughput and NVM reads, FastFair vs PDL-ART (GA1);
    - [fig5]: scan throughput and NVM reads (GA5);
    - [fig6]: FPTree HTM aborts vs data size and threads (GC3);
    - [fig9], [fig10]: YCSB sweeps, string and integer keys;
    - [fig11]: low-bandwidth NVM machine (§6.2);
    - [fig12]: factor analysis (§6.3);
    - [fig13]: tail latency (§6.4);
    - [fig14]: single-thread throughput (§6.5);
    - [fig15]: Zipfian-coefficient sweep (§6.6);
    - [eadr]: ADR vs eADR machine modes (§3.5 discussion);
    - [fh5]: remote-read coherence traffic and its bandwidth over time
      (§3.1.1);
    - [sec6_7]: jump-node distance distribution (§6.7);
    - [sec6_8]: {!sec6_8} with 100 rounds;
    - [stats]: the canonical instrumented bench: YCSB W-A, int keys,
      θ 0.99, 8 threads, PACTree, PDL-ART and FastFair, with a span
      recorder (phase time) and the persist-order sanitizer on the
      whole run; any sanitizer hazard raises [Failure]. *)
val registry : (string * (Scale.t -> table list)) list
