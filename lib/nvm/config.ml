type protocol = Snoop | Directory

(* Calibrated against published DCPMM measurements (Yang et al.,
   FAST'20): random 256B read ~300ns, clwb+sfence ~500-800ns, per-NUMA
   read bandwidth ~30GB/s, write bandwidth 3-5x lower, sequential reads
   3-5x faster than random via prefetch. *)
let read_latency = 150e-9

let read_byte_cost = 0.55e-9

let write_latency = 120e-9

let write_byte_cost = 2.1e-9

let buffer_hit_latency = 95e-9

let read_buffer_slots = 64 (* the 16KB XPBuffer: 64 XPLines *)

let cache_hit_cost = 6e-9

(* The L1D line-fill buffers of one core: Skylake-SP-era cores, such as
   the paper's Cascade Lake, have 10-12; 10 is the conservative end. *)
let fill_buffers = 10

(* Scaled with the benchmark datasets: the paper's 64M-key indexes
   exceed the testbed's LLC by ~2 orders of magnitude; the reduced
   simulation scale keeps the same dataset:cache ratio so indexes stay
   NVM-bound, which is the regime the paper studies.  The 4096 slots
   are shared by all pools of a machine: the cache is physically
   indexed (see [Machine.cache_slot]). *)
let cache_slots_log2 = 12

let clwb_cpu_cost = 15e-9

let fence_base_cost = 30e-9

let remote_latency = 60e-9

let dram_latency = 90e-9

type profile = { channels : int; op_overhead : float; eadr : bool }

let dcpmm = { channels = 16; op_overhead = 120e-9; eadr = false }

(* §6.2: 16 physical cores and 2x128GB NVM per socket; cumulative
   bandwidth about 3x lower than the default platform. *)
let dcpmm_low_bw = { dcpmm with channels = 5 }

(* §3.5: eADR mode — CPU caches join the persistent domain, so
   explicit flushes/fences are unnecessary (and free), every store is
   durable on power failure, but the media bandwidth still bounds
   sustained write throughput (dirty lines must eventually drain). *)
let dcpmm_eadr = { dcpmm with eadr = true }

let read_bandwidth p = float_of_int p.channels /. read_byte_cost

let write_bandwidth p = float_of_int p.channels /. write_byte_cost
