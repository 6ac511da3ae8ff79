type crash_mode = Strict | Flaky of float * Des.Rng.t

type sink = { numa : int; apply : Bytes.t -> int -> int -> unit }

(* One thread's flushed-but-unfenced lines, in clwb order: entry [i]
   is line [lines.(i)] of pool [pools.(i)] (whose sink is the
   machine's, by pool id), in global XPLine [xplines.(i)], with its
   64 B snapshot at [64 * i] in [snaps].  The arrays only grow and hold
   ints and bytes, so staging allocates nothing in the steady state and
   stores no pointer. *)
type stage = {
  mutable n : int;
  mutable pools : int array;
  mutable lines : int array;
  mutable xplines : int array;
  mutable snaps : Bytes.t;
}

(* A fence's staged lines grouped by (device numa, xpline): group [g]
   is [counts.(g)] lines of XPLine [xplines.(g)] on device [numas.(g)].
   The groups are chained into [size] hash buckets ([heads] to the
   newest group of a bucket, [next] to the next older one), hashed as
   the tuple [(numa, xpline)] would be, and [size] starts at 16 and
   doubles while there are more than [2 * size] groups.  Visiting the
   buckets in ascending order, newest group first, is therefore the
   iteration order of a [Hashtbl] built by the same insertions.  The
   arrays only grow, so grouping allocates nothing in the steady
   state.

   That order is kept although first-clwb order (group creation
   order) would be simpler: it is not neutral.  Writing each fence's
   groups in creation order moved perfbench [ycsb_c], a read-only
   phase, at seeds 1-4 from a p50 of 0.216 to 0.234 us (+8.3%) and
   lowered its Mops/s by 0.4-1.3%; at seed 1 it lowered [ycsb_a]'s
   Mops/s by 1.0%, raised its p99.9 by 2.1%, and moved BzTree's
   golden YCSB A pin.  Reads after a load thus depend on the order in
   which the load's writes reached the devices. *)
type groups = {
  mutable count : int;
  mutable size : int;
  mutable numas : int array;
  mutable xplines : int array;
  mutable counts : int array;
  mutable hashes : int array;
  mutable next : int array;
  mutable heads : int array;
  key : int array; (* [|numa; xpline|]: a block hashed like the tuple *)
}

let initial_buckets = 16

let new_groups () =
  {
    count = 0;
    size = initial_buckets;
    numas = [||];
    xplines = [||];
    counts = [||];
    hashes = [||];
    next = [||];
    heads = Array.make initial_buckets (-1);
    key = [| 0; 0 |];
  }

let grow_groups g =
  let cap = max 8 (2 * g.count) in
  let grow a =
    let b = Array.make cap 0 in
    Array.blit a 0 b 0 g.count;
    b
  in
  g.numas <- grow g.numas;
  g.xplines <- grow g.xplines;
  g.counts <- grow g.counts;
  g.hashes <- grow g.hashes;
  g.next <- grow g.next

(* Chain group [i] in front of its bucket. *)
let link g i =
  let b = g.hashes.(i) land (g.size - 1) in
  g.next.(i) <- g.heads.(b);
  g.heads.(b) <- i

let clear_buckets g size =
  if Array.length g.heads < size then g.heads <- Array.make size (-1)
  else Array.fill g.heads 0 size (-1);
  g.size <- size

(* The group of XPLine [xpline] on device [numa] in the chain from
   group [i], or [-1]. *)
let rec find_group g numa xpline i =
  if i < 0 || (g.numas.(i) = numa && g.xplines.(i) = xpline) then i
  else find_group g numa xpline g.next.(i)

let new_group g numa xpline h =
  let i = g.count in
  if i = Array.length g.numas then grow_groups g;
  g.numas.(i) <- numa;
  g.xplines.(i) <- xpline;
  g.counts.(i) <- 1;
  g.hashes.(i) <- h;
  g.count <- i + 1;
  link g i;
  if g.count > 2 * g.size then begin
    (* Re-chaining in creation order leaves every bucket newest first
       again. *)
    clear_buckets g (2 * g.size);
    for j = 0 to g.count - 1 do
      link g j
    done
  end

(* Count one staged line of XPLine [xpline] on device [numa]. *)
let add_line g numa xpline =
  g.key.(0) <- numa;
  g.key.(1) <- xpline;
  let h = Hashtbl.hash g.key in
  let i = find_group g numa xpline g.heads.(h land (g.size - 1)) in
  if i >= 0 then g.counts.(i) <- g.counts.(i) + 1 else new_group g numa xpline h

(* Group the first [n] staged lines of [st], whose pools' sinks are in
   [sinks]. *)
let group_stage g sinks (st : stage) n =
  g.count <- 0;
  clear_buckets g initial_buckets;
  for i = 0 to n - 1 do
    add_line g sinks.(st.pools.(i)).numa st.xplines.(i)
  done

(* True when the first [n] staged lines (n >= 1) of [st] are all in
   the first one's (numa, xpline) group, as in most fences: the lines
   of one XPLine of one device.  A global XPLine id holds its pool's id,
   so lines of one XPLine are of one pool, on one device. *)
let one_group (st : stage) n =
  let xpline = st.xplines.(0) in
  let i = ref 1 in
  while !i < n && st.xplines.(!i) = xpline do
    incr i
  done;
  !i = n

(* [f numa xpline count] for every group, bucket by bucket and newest
   first within one. *)
let iter_groups g f =
  for b = 0 to g.size - 1 do
    let i = ref g.heads.(b) in
    while !i >= 0 do
      f g.numas.(!i) g.xplines.(!i) g.counts.(!i);
      i := g.next.(!i)
    done
  done

type persist_event =
  | Store of { tid : int; pool : int; line : int }
  | Clwb of { tid : int; pool : int; line : int }
  | Fence of { tid : int }
  | Drain of { tid : int; pool : int; line : int }

type pool = ..

type pool += No_pool

type t = {
  profile : Config.profile;
  protocol : Config.protocol;
  devices : Device.t array;
  cpu_tags : int array; (* direct-mapped; -1 = invalid *)
  arrivals : float array;
      (* by slot: when the line a software prefetch put there arrives,
         until a miss or an invalidation takes the slot; 0. for a line
         that no prefetch fetched *)
  arrival : Des.Sched.interval; (* a hit's clock and the arrival it waits for *)
  cpu_mask : int;
  mutable stages : stage array; (* indexed by thread id + 1 *)
  groups : groups; (* the fence in progress, grouped *)
  write_group : int -> int -> int -> unit; (* writes one group of [groups] *)
  fence_times : Des.Sched.interval;
      (* the fence in progress: its start and its latest WPQ acceptance
         so far, unboxed *)
  mutable fence_from : int; (* issuing NUMA domain; -1 outside a simulation *)
  io : Device.cursor; (* one group write's request / acceptance time *)
  stats : Stats.t;
  mutable pools : pool array; (* by id; [No_pool] past [next_pool_id] *)
  mutable sinks : sink array; (* by pool id *)
  mutable next_pool_id : int;
  mutable crash_hooks : (crash_mode -> unit) list;
  mutable subscribers : (persist_event -> unit) list;
  mutable flush_fault : int option;
      (* drop the first clwb since set, from the k-th on, that is not
         redundant *)
  mutable flush_seen : int;
  mutable flush_dropped : int; (* the clwb dropped, or -1 *)
  mutable wait_observer : (float -> unit) option;
      (* called with each fence's simulated stall, for phase attribution *)
}

(* Write one (numa, xpline) group of the fence in progress: a full
   256B write when 4 lines were flushed, a partial RMW write otherwise.
   Outside a simulation only the traffic is accounted. *)
let write_staged_group t dev_numa xpline count =
  let bytes = Int.min 256 (64 * count) in
  let dev = t.devices.(dev_numa) in
  let io = t.io in
  if t.fence_from < 0 then begin
    io.at <- 0.0;
    Device.write dev io ~xpline ~bytes ~from_numa:dev_numa
  end
  else begin
    let ft = t.fence_times in
    io.at <- ft.start;
    Device.write dev io ~xpline ~bytes ~from_numa:t.fence_from;
    if io.at > ft.at then ft.at <- io.at
  end

let create ?(profile = Config.dcpmm) ?(protocol = Config.Snoop) ~numa_count () =
  let slots = 1 lsl Config.cache_slots_log2 in
  let rec t =
    {
      profile;
      protocol;
      devices =
        Array.init numa_count (fun numa ->
            Device.create ~channels:profile.Config.channels ~protocol ~numa);
      cpu_tags = Array.make slots (-1);
      arrivals = Array.make slots 0.0;
      arrival = { start = 0.0; at = 0.0 };
      cpu_mask = slots - 1;
      stages = [||];
      groups = new_groups ();
      fence_times = { start = 0.0; at = 0.0 };
      fence_from = -1;
      io = { Device.start = 0.0; at = 0.0 };
      write_group = (fun numa xpline count -> write_staged_group t numa xpline count);
      stats = Stats.create ();
      pools = Array.make 8 No_pool;
      sinks = [||];
      next_pool_id = 0;
      crash_hooks = [];
      subscribers = [];
      flush_fault = None;
      flush_seen = 0;
      flush_dropped = -1;
      wait_observer = None;
    }
  in
  t

let set_wait_observer t f = t.wait_observer <- f

let subscribe t f =
  t.subscribers <- t.subscribers @ [ f ];
  fun () -> t.subscribers <- List.filter (fun g -> g != f) t.subscribers

let observed t = match t.subscribers with [] -> false | _ :: _ -> true

let emit t ev = List.iter (fun f -> f ev) t.subscribers

let set_flush_fault t k =
  t.flush_fault <- k;
  t.flush_seen <- 0;
  t.flush_dropped <- -1

let flush_faulted t ~redundant =
  match t.flush_fault with
  | None -> false
  | Some k ->
      let n = t.flush_seen in
      t.flush_seen <- n + 1;
      if n >= k && t.flush_dropped < 0 && not redundant then begin
        t.flush_dropped <- n;
        true
      end
      else false

let flush_dropped t = t.flush_dropped

let flush_ticks t = t.flush_seen

let profile t = t.profile

let protocol t = t.protocol

let numa_count t = Array.length t.devices

let device t numa = t.devices.(numa)

let stats t = t.stats

let total_stats t =
  let acc = Stats.snapshot t.stats in
  Array.iter (fun dev -> Stats.add acc (Device.stats dev)) t.devices;
  acc

let pool_count t = t.next_pool_id

(* The tables are the machine's own, so pools die with their machine. *)
let add_pool t p sink =
  let id = t.next_pool_id in
  if id = Array.length t.pools then begin
    let pools = Array.make (2 * id) No_pool in
    Array.blit t.pools 0 pools 0 id;
    t.pools <- pools
  end;
  if id >= Array.length t.sinks then begin
    let sinks = Array.make (Array.length t.pools) sink in
    Array.blit t.sinks 0 sinks 0 id;
    t.sinks <- sinks
  end;
  t.pools.(id) <- p;
  t.sinks.(id) <- sink;
  t.next_pool_id <- id + 1

let pool t id =
  if id < 0 || id >= t.next_pool_id then
    invalid_arg (Printf.sprintf "Machine.pool: no pool %d (machine has %d)" id t.next_pool_id);
  Array.unsafe_get t.pools id

(* Physically indexed: the line within the pool, offset by a
   multiplicative hash of the pool id (bits 40 and up).  The high bits
   of the product mix every bit of the id, and adding rather than
   hashing the line keeps consecutive lines of a pool in distinct
   slots. *)
let[@inline] cache_slot t gline =
  (gline + (((gline lsr 40) * 0x1E3779B97F4A7C15) lsr 40)) land t.cpu_mask

(* A hit on the line in [slot], which a software prefetch fetched: a
   thread whose clock is still before the arrival waits for it, and
   the hit is late.  Outside a simulation the line is there.  The
   times stay in the float array and the float-only [t.arrival], so
   none is boxed. *)
let await_arrival t slot =
  if Des.Sched.running () then begin
    let w = t.arrival in
    Des.Sched.stamp_thread w;
    if t.arrivals.(slot) > w.start then begin
      t.stats.Stats.late_hits <- t.stats.Stats.late_hits + 1;
      w.at <- t.arrivals.(slot);
      Des.Sched.delay_interval w
    end
  end

let[@inline] cache_access t gline =
  let slot = cache_slot t gline in
  if t.cpu_tags.(slot) = gline then begin
    t.stats.Stats.cache_hits <- t.stats.Stats.cache_hits + 1;
    if t.arrivals.(slot) > 0.0 then await_arrival t slot;
    true
  end
  else begin
    t.stats.Stats.cache_misses <- t.stats.Stats.cache_misses + 1;
    t.cpu_tags.(slot) <- gline;
    t.arrivals.(slot) <- 0.0;
    false
  end

let[@inline] cache_invalidate t gline =
  let slot = cache_slot t gline in
  if t.cpu_tags.(slot) = gline then begin
    t.cpu_tags.(slot) <- -1;
    t.arrivals.(slot) <- 0.0
  end

let[@inline] cached t gline = t.cpu_tags.(cache_slot t gline) = gline

let prefetch_fill t gline (c : Des.Sched.interval) =
  let slot = cache_slot t gline in
  t.cpu_tags.(slot) <- gline;
  t.arrivals.(slot) <- c.at;
  t.stats.Stats.sw_prefetches <- t.stats.Stats.sw_prefetches + 1

let empty_stage () = { n = 0; pools = [||]; lines = [||]; xplines = [||]; snaps = Bytes.empty }

let stage_of t tid =
  let i = tid + 1 in
  if i >= Array.length t.stages then begin
    let stages = Array.init (max 32 (2 * i)) (fun _ -> empty_stage ()) in
    Array.blit t.stages 0 stages 0 (Array.length t.stages);
    t.stages <- stages
  end;
  t.stages.(i)

let grow_stage st =
  let cap = max 8 (2 * st.n) in
  let grow a =
    let b = Array.make cap 0 in
    Array.blit a 0 b 0 st.n;
    b
  in
  st.pools <- grow st.pools;
  st.lines <- grow st.lines;
  st.xplines <- grow st.xplines;
  let snaps = Bytes.create (64 * cap) in
  Bytes.blit st.snaps 0 snaps 0 (64 * st.n);
  st.snaps <- snaps

let stage t ~pool ~line ~xpline src pos =
  let st = stage_of t (Des.Sched.current_id ()) in
  if st.n = Array.length st.lines then grow_stage st;
  let i = st.n in
  st.pools.(i) <- pool;
  st.lines.(i) <- line;
  st.xplines.(i) <- xpline;
  Words.blit src pos st.snaps (64 * i) 64;
  st.n <- i + 1

let fence_order lines =
  let g = new_groups () in
  List.iter (fun (numa, xpline) -> add_line g numa xpline) lines;
  let acc = ref [] in
  iter_groups g (fun numa xpline count -> acc := (numa, xpline, count) :: !acc);
  List.rev !acc

let on_crash t hook = t.crash_hooks <- hook :: t.crash_hooks

(* Write the first [n] staged lines of [st], one group at a time in
   [iter_groups] order.  A single group needs no hashing: its order is
   trivially the same. *)
let write_stage t (st : stage) n =
  if one_group st n then
    write_staged_group t t.sinks.(st.pools.(0)).numa st.xplines.(0) n
  else begin
    group_stage t.groups t.sinks st n;
    iter_groups t.groups t.write_group
  end

(* sfence: group the thread's staged flushes by XPLine (the XPBuffer's
   write combining), charge one media write per group — a full 256B
   write when 4 lines were flushed, a partial RMW write otherwise —
   and wait for the slowest.  Sequentially flushed nodes therefore
   persist much more cheaply than scattered single lines (FH3). *)
let fence t =
  if t.profile.Config.eadr then () (* persistent caches: nothing to order *)
  else begin
  t.stats.Stats.fences <- t.stats.Stats.fences + 1;
  Des.Sched.charge Config.fence_base_cost;
  let tid = Des.Sched.current_id () in
  if observed t then emit t (Fence { tid });
  let st = stage_of t tid in
  let n = st.n in
  if n > 0 then begin
    st.n <- 0;
    if Des.Sched.running () then begin
      let ft = t.fence_times in
      (* sfence waits for WPQ acceptance (the persistent domain
         under ADR), not the media transfer; the channel stays
         booked, so saturation still back-pressures the fence. *)
      Des.Sched.stamp ft;
      t.fence_from <- Des.Sched.current_numa ();
      write_stage t st n;
      Des.Sched.delay_interval ft;
      match t.wait_observer with
      | Some observe -> observe (ft.at -. ft.start)
      | None -> ()
    end
    else begin
      t.fence_from <- -1;
      write_stage t st n
    end;
    (* The thread stages nothing while it waits, so the entries are
       still in place. *)
    for i = 0 to n - 1 do
      t.sinks.(st.pools.(i)).apply st.snaps (64 * i) st.lines.(i)
    done
  end
  end

let crash t mode =
  (* eADR: the CPU caches are persistent — every store survives. *)
  let mode = if t.profile.Config.eadr then Flaky (1.0, Des.Rng.create ~seed:0L) else mode in
  Array.iter (fun st -> st.n <- 0) t.stages;
  Array.fill t.cpu_tags 0 (Array.length t.cpu_tags) (-1);
  Array.fill t.arrivals 0 (Array.length t.arrivals) 0.0;
  Array.iter Device.reset_buffers t.devices;
  List.iter (fun hook -> hook mode) t.crash_hooks
