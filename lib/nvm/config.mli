(** Performance-model parameters of the simulated NVM machine.

    A {!profile} bundles every tunable constant: media latencies,
    per-channel transfer costs, buffer sizes and CPU-side costs.  Two
    presets mirror the paper's evaluation platforms: the default
    2-socket DCPMM server (§6) and the low-bandwidth machine of §6.2.

    All times are in seconds, all sizes in bytes. *)

(** Inter-socket cache coherence protocol (paper §3.1.1, FH5).
    [Directory] stores coherence state on the NVM media, so remote
    reads generate media {e writes}; [Snoop] does not. *)
type protocol = Snoop | Directory

type profile = {
  channels : int;  (** parallel media channels per NUMA device *)
  read_latency : float;  (** setup cost of a 256B XPLine fetch *)
  read_byte_cost : float;  (** per-byte channel occupancy for reads *)
  write_latency : float;  (** setup cost of a media write *)
  write_byte_cost : float;  (** per-byte channel occupancy for writes *)
  buffer_hit_latency : float;  (** XPBuffer / read-buffer hit *)
  read_buffer_slots : int;  (** XPLine read/prefetch buffer entries *)
  prefetch : bool;  (** enable the XPPrefetcher model *)
  cache_hit_cost : float;  (** CPU cache hit *)
  cache_slots_log2 : int;
      (** log2 of the CPU cache model's slots (64B each), shared by all
          pools of a machine *)
  clwb_cpu_cost : float;  (** CPU-side cost of issuing clwb *)
  fence_base_cost : float;  (** CPU-side cost of sfence *)
  remote_latency : float;  (** interconnect adder for cross-NUMA access *)
  dram_latency : float;  (** DRAM miss latency (volatile pools) *)
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
