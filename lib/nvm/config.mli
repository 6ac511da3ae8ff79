(** Performance-model parameters of the simulated NVM machine.

    The machine is the paper's 2-socket Optane DCPMM server (§6): its
    media latencies, per-channel transfer costs, buffer sizes and
    CPU-side costs are the constants below.  A {!profile} holds what
    the paper's platforms vary — the channel count (the low-bandwidth
    machine of §6.2) and eADR (§3.5) — and the per-operation CPU
    overhead.

    All times are in seconds, all sizes in bytes. *)

(** Inter-socket cache coherence protocol (paper §3.1.1, FH5).
    [Directory] stores coherence state on the NVM media, so remote
    reads generate media {e writes}; [Snoop] does not. *)
type protocol = Snoop | Directory

(** {2 The DCPMM calibration} *)

val read_latency : float  (** setup cost of a 256B XPLine fetch *)

val read_byte_cost : float  (** per-byte channel occupancy for reads *)

val write_latency : float  (** setup cost of a media write *)

val write_byte_cost : float  (** per-byte channel occupancy for writes *)

val buffer_hit_latency : float  (** XPBuffer / read-buffer hit *)

val read_buffer_slots : int  (** XPLine read/prefetch buffer entries *)

val cache_hit_cost : float  (** CPU cache hit *)

(** A core's L1D line-fill buffers: the most lines one thread has in
    flight.  A software prefetch ({!Pool.prefetch}) covers at most this
    many lines.  A hardware constant, like the XPBuffer's size. *)
val fill_buffers : int

(** log2 of the CPU cache model's slots (64B each), shared by all
    pools of a machine. *)
val cache_slots_log2 : int

val clwb_cpu_cost : float  (** CPU-side cost of issuing clwb *)

val fence_base_cost : float  (** CPU-side cost of sfence *)

val remote_latency : float  (** interconnect adder for a cross-NUMA access *)

val dram_latency : float  (** DRAM miss latency (volatile pools) *)

(** {2 Platform presets} *)

type profile = {
  channels : int;  (** parallel media channels per NUMA device *)
  op_overhead : float;  (** fixed CPU work charged per index operation *)
  eadr : bool;
      (** enhanced-ADR (§3.5): CPU caches are persistent — flushes and
          fences are free no-ops, a crash preserves all stores, and
          media writes drain in the background (still consuming
          bandwidth) *)
}

(** The default evaluation platform: 2-socket, high-bandwidth DCPMM
    (paper §6, Figures 9-15). *)
val dcpmm : profile

(** The low-bandwidth machine of §6.2: roughly 3x less cumulative NVM
    bandwidth. *)
val dcpmm_low_bw : profile

(** eADR mode (§3.5): persistent CPU caches. *)
val dcpmm_eadr : profile

(** Aggregate read bandwidth of one device under [p], bytes/second. *)
val read_bandwidth : profile -> float

(** Aggregate write bandwidth of one device under [p], bytes/second. *)
val write_bandwidth : profile -> float
