type t = {
  mutable media_reads : int;
  mutable media_read_bytes : int;
  mutable media_writes : int;
  mutable media_write_bytes : int;
  mutable rmw_reads : int;
  mutable rmw_read_bytes : int;
  mutable dir_writes : int;
  mutable dir_write_bytes : int;
  mutable buffer_hits : int;
  mutable early_buffer_hits : int;
  mutable prefetches : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable store_misses : int;
  mutable sw_prefetches : int;
  mutable late_hits : int;
  mutable remote_accesses : int;
  mutable flushes : int;
  mutable flushes_elided : int;
  mutable fences : int;
  mutable logical_read_bytes : int;
  mutable logical_write_bytes : int;
}

let create () =
  {
    media_reads = 0;
    media_read_bytes = 0;
    media_writes = 0;
    media_write_bytes = 0;
    rmw_reads = 0;
    rmw_read_bytes = 0;
    dir_writes = 0;
    dir_write_bytes = 0;
    buffer_hits = 0;
    early_buffer_hits = 0;
    prefetches = 0;
    cache_hits = 0;
    cache_misses = 0;
    store_misses = 0;
    sw_prefetches = 0;
    late_hits = 0;
    remote_accesses = 0;
    flushes = 0;
    flushes_elided = 0;
    fences = 0;
    logical_read_bytes = 0;
    logical_write_bytes = 0;
  }

let reset t =
  t.media_reads <- 0;
  t.media_read_bytes <- 0;
  t.media_writes <- 0;
  t.media_write_bytes <- 0;
  t.rmw_reads <- 0;
  t.rmw_read_bytes <- 0;
  t.dir_writes <- 0;
  t.dir_write_bytes <- 0;
  t.buffer_hits <- 0;
  t.early_buffer_hits <- 0;
  t.prefetches <- 0;
  t.cache_hits <- 0;
  t.cache_misses <- 0;
  t.store_misses <- 0;
  t.sw_prefetches <- 0;
  t.late_hits <- 0;
  t.remote_accesses <- 0;
  t.flushes <- 0;
  t.flushes_elided <- 0;
  t.fences <- 0;
  t.logical_read_bytes <- 0;
  t.logical_write_bytes <- 0

let snapshot t =
  {
    media_reads = t.media_reads;
    media_read_bytes = t.media_read_bytes;
    media_writes = t.media_writes;
    media_write_bytes = t.media_write_bytes;
    rmw_reads = t.rmw_reads;
    rmw_read_bytes = t.rmw_read_bytes;
    dir_writes = t.dir_writes;
    dir_write_bytes = t.dir_write_bytes;
    buffer_hits = t.buffer_hits;
    early_buffer_hits = t.early_buffer_hits;
    prefetches = t.prefetches;
    cache_hits = t.cache_hits;
    cache_misses = t.cache_misses;
    store_misses = t.store_misses;
    sw_prefetches = t.sw_prefetches;
    late_hits = t.late_hits;
    remote_accesses = t.remote_accesses;
    flushes = t.flushes;
    flushes_elided = t.flushes_elided;
    fences = t.fences;
    logical_read_bytes = t.logical_read_bytes;
    logical_write_bytes = t.logical_write_bytes;
  }

let diff a b =
  {
    media_reads = a.media_reads - b.media_reads;
    media_read_bytes = a.media_read_bytes - b.media_read_bytes;
    media_writes = a.media_writes - b.media_writes;
    media_write_bytes = a.media_write_bytes - b.media_write_bytes;
    rmw_reads = a.rmw_reads - b.rmw_reads;
    rmw_read_bytes = a.rmw_read_bytes - b.rmw_read_bytes;
    dir_writes = a.dir_writes - b.dir_writes;
    dir_write_bytes = a.dir_write_bytes - b.dir_write_bytes;
    buffer_hits = a.buffer_hits - b.buffer_hits;
    early_buffer_hits = a.early_buffer_hits - b.early_buffer_hits;
    prefetches = a.prefetches - b.prefetches;
    cache_hits = a.cache_hits - b.cache_hits;
    cache_misses = a.cache_misses - b.cache_misses;
    store_misses = a.store_misses - b.store_misses;
    sw_prefetches = a.sw_prefetches - b.sw_prefetches;
    late_hits = a.late_hits - b.late_hits;
    remote_accesses = a.remote_accesses - b.remote_accesses;
    flushes = a.flushes - b.flushes;
    flushes_elided = a.flushes_elided - b.flushes_elided;
    fences = a.fences - b.fences;
    logical_read_bytes = a.logical_read_bytes - b.logical_read_bytes;
    logical_write_bytes = a.logical_write_bytes - b.logical_write_bytes;
  }

let add acc x =
  acc.media_reads <- acc.media_reads + x.media_reads;
  acc.media_read_bytes <- acc.media_read_bytes + x.media_read_bytes;
  acc.media_writes <- acc.media_writes + x.media_writes;
  acc.media_write_bytes <- acc.media_write_bytes + x.media_write_bytes;
  acc.rmw_reads <- acc.rmw_reads + x.rmw_reads;
  acc.rmw_read_bytes <- acc.rmw_read_bytes + x.rmw_read_bytes;
  acc.dir_writes <- acc.dir_writes + x.dir_writes;
  acc.dir_write_bytes <- acc.dir_write_bytes + x.dir_write_bytes;
  acc.buffer_hits <- acc.buffer_hits + x.buffer_hits;
  acc.early_buffer_hits <- acc.early_buffer_hits + x.early_buffer_hits;
  acc.prefetches <- acc.prefetches + x.prefetches;
  acc.cache_hits <- acc.cache_hits + x.cache_hits;
  acc.cache_misses <- acc.cache_misses + x.cache_misses;
  acc.store_misses <- acc.store_misses + x.store_misses;
  acc.sw_prefetches <- acc.sw_prefetches + x.sw_prefetches;
  acc.late_hits <- acc.late_hits + x.late_hits;
  acc.remote_accesses <- acc.remote_accesses + x.remote_accesses;
  acc.flushes <- acc.flushes + x.flushes;
  acc.flushes_elided <- acc.flushes_elided + x.flushes_elided;
  acc.fences <- acc.fences + x.fences;
  acc.logical_read_bytes <- acc.logical_read_bytes + x.logical_read_bytes;
  acc.logical_write_bytes <- acc.logical_write_bytes + x.logical_write_bytes

let is_zero t =
  t.media_reads = 0 && t.media_read_bytes = 0 && t.media_writes = 0
  && t.media_write_bytes = 0 && t.rmw_reads = 0 && t.rmw_read_bytes = 0
  && t.dir_writes = 0 && t.dir_write_bytes = 0 && t.buffer_hits = 0
  && t.early_buffer_hits = 0
  && t.prefetches = 0 && t.cache_hits = 0 && t.cache_misses = 0
  && t.store_misses = 0 && t.sw_prefetches = 0 && t.late_hits = 0
  && t.remote_accesses = 0 && t.flushes = 0 && t.flushes_elided = 0
  && t.fences = 0
  && t.logical_read_bytes = 0 && t.logical_write_bytes = 0

let total_read_bytes t = t.media_read_bytes + t.rmw_read_bytes

let total_write_bytes t = t.media_write_bytes + t.dir_write_bytes

let read_amplification t =
  if t.logical_read_bytes = 0 then 0.0
  else float_of_int (total_read_bytes t) /. float_of_int t.logical_read_bytes

let write_amplification t =
  if t.logical_write_bytes = 0 then 0.0
  else float_of_int (total_write_bytes t) /. float_of_int t.logical_write_bytes

let pp ppf t =
  Format.fprintf ppf
    "@[<v>media reads: %d (%d B, +%d B rmw)@,\
     media writes: %d (%d B, +%d B directory)@,\
     logical: %d B read, %d B written (amplification %.2fx read / %.2fx write)@,\
     buffer hits: %d (%d early), prefetches: %d@,\
     cpu cache: %d hits (%d late) / %d misses (%d by stores), %d software prefetches, remote: %d@,\
     flushes: %d (%d redundant), fences: %d@]"
    t.media_reads t.media_read_bytes t.rmw_read_bytes t.media_writes
    t.media_write_bytes t.dir_write_bytes t.logical_read_bytes t.logical_write_bytes
    (read_amplification t) (write_amplification t) t.buffer_hits t.early_buffer_hits t.prefetches
    t.cache_hits t.late_hits t.cache_misses t.store_misses t.sw_prefetches t.remote_accesses t.flushes t.flushes_elided
    t.fences
