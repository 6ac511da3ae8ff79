(** Durable-linearizability oracle for single-writer histories.

    Given the sequence of index operations that produced a persist
    trace — each tagged with the trace cursors at which it started and
    finished — and a crash position inside the trace, the oracle
    derives the set of states the recovered index is allowed to be in:

    - every operation that completed before the crash is acknowledged
      and its effect must survive recovery;
    - operations spanning the crash are {e in flight}: any in-order
      prefix of them may have taken effect, nothing else — checked
      jointly across keys, so a state where a later batch member
      applied without an earlier one is rejected.  A single-writer
      history has at most one; ops tagged with one shared trace
      window are all in flight together;
    - no other key may appear, scans must be sorted, complete and
      phantom-free, and the index's own invariant checker must pass. *)

type op = Insert of Pactree.Key.t * int | Delete of Pactree.Key.t

type entry = {
  op : op;
  start_seq : int;  (** {!Trace.seq} just before issuing the op *)
  end_seq : int;  (** {!Trace.seq} just after it returned *)
}

type history = entry list

val op_key : op -> Pactree.Key.t

(** Execute an op against a live index. *)
val run_op : Baselines.Index_intf.index -> op -> unit

(** [check ~history ~at ~lookup ~scan ~invariants] validates a
    recovered index against the history truncated at trace position
    [at].  Exceptions raised by the probes are reported as violations,
    not propagated.  Returns violation descriptions; [[]] = legal. *)
val check :
  history:history ->
  at:int ->
  lookup:(Pactree.Key.t -> int option) ->
  scan:(Pactree.Key.t -> int -> (Pactree.Key.t * int) list) ->
  invariants:(unit -> unit) ->
  string list
