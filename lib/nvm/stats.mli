(** PMWatch-style traffic counters for the simulated NVM.

    One {!t} per device plus one machine-level instance; [add]
    aggregates, [diff] supports before/after measurement windows. *)

type t = {
  mutable media_reads : int;  (** XPLine fetches from media *)
  mutable media_read_bytes : int;
  mutable media_writes : int;  (** media write operations *)
  mutable media_write_bytes : int;
  mutable rmw_reads : int;  (** read-modify-write amplification reads *)
  mutable rmw_read_bytes : int;
  mutable dir_writes : int;  (** directory coherence writes (FH5) *)
  mutable dir_write_bytes : int;
  mutable buffer_hits : int;  (** XPBuffer / read-buffer hits *)
  mutable early_buffer_hits : int;
      (** the [buffer_hits] answered before the media read of their
          XPLine had completed: the model answers them at the buffer's
          latency all the same (the device's sequential prefetch and
          concurrent readers of one XPLine take them) *)
  mutable prefetches : int;  (** XPPrefetcher fetches of the next XPLine *)
  mutable cache_hits : int;  (** CPU cache hits *)
  mutable cache_misses : int;
  mutable store_misses : int;
      (** the [cache_misses] that stores took: each is a read for
          ownership of a line the store then overwrites *)
  mutable sw_prefetches : int;
      (** software prefetches ([Pool.prefetch]) that fetched a line; one
          of a line already cached does nothing and is not counted *)
  mutable late_hits : int;
      (** the [cache_hits] that waited for a line still in flight from
          a software prefetch *)
  mutable remote_accesses : int;  (** cross-NUMA accesses *)
  mutable flushes : int;  (** clwb instructions that reached the device *)
  mutable flushes_elided : int;
      (** redundant clwbs, which FliT-style flush tracking could elide:
          the line was already clean on media or already staged by this
          thread (counted, and executed in full) *)
  mutable fences : int;  (** sfence instructions *)
  mutable logical_read_bytes : int;
      (** bytes the program asked to read (denominator of FH2's read
          amplification; media traffic is the numerator) *)
  mutable logical_write_bytes : int;
      (** bytes the program asked to write (FH1 write amplification) *)
}

val create : unit -> t

val reset : t -> unit

(** Independent copy, for before/after windows. *)
val snapshot : t -> t

(** [diff after before] is the per-field difference. *)
val diff : t -> t -> t

(** [add acc x] accumulates [x] into [acc]. *)
val add : t -> t -> unit

(** Every counter is zero (e.g. a [diff] over an idle window). *)
val is_zero : t -> bool

(** Total bytes read from media, including RMW amplification. *)
val total_read_bytes : t -> int

(** Total bytes written to media, including directory writes. *)
val total_write_bytes : t -> int

(** [total_read_bytes / logical_read_bytes]; [0.] when nothing was
    read.  > 1 exposes FH2 (256B media granularity vs small reads). *)
val read_amplification : t -> float

(** [total_write_bytes / logical_write_bytes]; [0.] when nothing was
    written.  > 1 exposes FH1 (RMW on partial XPLine writes). *)
val write_amplification : t -> float

val pp : Format.formatter -> t -> unit
