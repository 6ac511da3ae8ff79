let xpline_size = 256

(* Channel occupancy of one XPLine fetch from the media. *)
let xpline_fetch = Config.read_latency +. (float_of_int xpline_size *. Config.read_byte_cost)

type t = {
  protocol : Config.protocol;
  numa : int;
  channels : float array;
      (* absolute time each channel becomes free, in ascending order
         around the ring from [head] *)
  mutable head : int;
  read_buf : int array; (* direct-mapped XPLine buffer; -1 = empty *)
  buf_ready : float array; (* by slot: when its XPLine's media read completes *)
  mutable last_fetched : int; (* previous XPLine miss, for the prefetcher *)
  owners : (int, int) Hashtbl.t; (* xpline -> owning NUMA domain *)
  stats : Stats.t;
}

let create ~channels ~protocol ~numa =
  if channels < 1 then invalid_arg "Device.create: no channel";
  {
    protocol;
    numa;
    channels = Array.make channels 0.0;
    head = 0;
    read_buf = Array.make Config.read_buffer_slots (-1);
    buf_ready = Array.make Config.read_buffer_slots 0.0;
    last_fetched = min_int;
    owners = Hashtbl.create 4096;
    stats = Stats.create ();
  }

let numa t = t.numa

let stats t = t.stats

(* With the 64 slots of the XPBuffer the slot is the low 6 XPLine
   bits, permuted by the odd multiplier: that is what keeps adjacent
   XPLines in distinct slots.  The pool id (high bits) plays no part; a
   pool-aware variant was measured and is slower (see DESIGN §6).  The
   buffer has [Config.read_buffer_slots] slots: a constant divisor makes
   no division instruction. *)
let[@inline] buf_slot xpline = xpline * 0x9E3779B1 land max_int mod Config.read_buffer_slots

let[@inline] buf_mem t xpline = t.read_buf.(buf_slot xpline) = xpline

(* Put [xpline] in its slot, its media read completing at [ready]. *)
let[@inline] buf_insert t xpline ready =
  let slot = buf_slot xpline in
  t.read_buf.(slot) <- xpline;
  t.buf_ready.(slot) <- ready

type cursor = Des.Sched.interval = { mutable start : float; mutable at : float }

(* Occupy the earliest-free channel for [cost] seconds starting no
   earlier than [c.at]; leaves the completion time in [c.at].  This
   and [remote_adder] are inlined so that their float argument and
   result are not boxed.  The channels are interchangeable: only the
   multiset of their free times matters, so the ring's head stands for
   every channel that is free earliest.  It leaves the ring, and the new
   free time goes in from the ring's latest end down, where it usually
   stays at once: a request most often ends after every booking before
   it.  No time is NaN or -0., so the comparison is [Float.max]. *)
let[@inline] channel_service t c cost =
  let ch = t.channels in
  let n = Array.length ch in
  let h = t.head in
  let free = Array.unsafe_get ch h in
  let start = if free > c.at then free else c.at in
  let finish = start +. cost in
  (* the hole left at [h] is the ring's latest place; later times move
     up into it *)
  let hole = ref h and moved = ref 0 in
  let prev = ref (if h = 0 then n - 1 else h - 1) in
  while !moved < n - 1 && Array.unsafe_get ch !prev > finish do
    Array.unsafe_set ch !hole (Array.unsafe_get ch !prev);
    hole := !prev;
    prev := if !prev = 0 then n - 1 else !prev - 1;
    incr moved
  done;
  Array.unsafe_set ch !hole finish;
  t.head <- (if h = n - 1 then 0 else h + 1);
  c.at <- finish

(* Directory coherence (FH5): accessing an XPLine from a NUMA domain
   other than its recorded owner updates the directory state, which
   lives on the 3D-Xpoint media, i.e. it is a media write (itself a
   partial-line RMW), and [c.at] moves to its completion.  Snoop mode
   keeps no on-media state. *)
let coherence_update t c ~xpline ~from_numa =
  match t.protocol with
  | Config.Snoop -> ()
  | Config.Directory ->
      (* Lines start out owned by their home socket (they were zeroed /
         initialised locally), so purely local workloads cause no
         directory traffic. *)
      let owner = try Hashtbl.find t.owners xpline with Not_found -> t.numa in
      if owner <> from_numa then begin
        Hashtbl.replace t.owners xpline from_numa;
        let s = t.stats in
        s.Stats.dir_writes <- s.Stats.dir_writes + 1;
        (* 64B directory entry write -> 256B RMW on the media. *)
        s.Stats.dir_write_bytes <- s.Stats.dir_write_bytes + xpline_size;
        s.Stats.rmw_reads <- s.Stats.rmw_reads + 1;
        s.Stats.rmw_read_bytes <- s.Stats.rmw_read_bytes + xpline_size;
        let cost =
          Config.write_latency
          +. (float_of_int xpline_size *. (Config.write_byte_cost +. Config.read_byte_cost))
        in
        channel_service t c cost
      end

let[@inline] remote_adder t ~from_numa =
  if from_numa = t.numa then 0.0
  else begin
    t.stats.Stats.remote_accesses <- t.stats.Stats.remote_accesses + 1;
    Config.remote_latency
  end

let read t c ~xpline ~from_numa =
  let s = t.stats in
  let remote = remote_adder t ~from_numa in
  let now = c.at in
  if buf_mem t xpline then begin
    s.Stats.buffer_hits <- s.Stats.buffer_hits + 1;
    (* The hit is answered at the buffer's latency even when the
       XPLine's media read has not completed yet: counted, not
       modelled. *)
    if t.buf_ready.(buf_slot xpline) > now then
      s.Stats.early_buffer_hits <- s.Stats.early_buffer_hits + 1;
    (* Keep a detected sequential stream running: when the hit is on
       the line the prefetcher just brought in, fetch the next one in
       the background. *)
    if xpline = t.last_fetched + 1 then begin
      if not (buf_mem t (xpline + 1)) then begin
        s.Stats.prefetches <- s.Stats.prefetches + 1;
        s.Stats.media_reads <- s.Stats.media_reads + 1;
        s.Stats.media_read_bytes <- s.Stats.media_read_bytes + xpline_size;
        channel_service t c xpline_fetch;
        buf_insert t (xpline + 1) c.at
      end;
      t.last_fetched <- xpline
    end;
    c.at <- now +. Config.buffer_hit_latency +. remote
  end
  else begin
    s.Stats.media_reads <- s.Stats.media_reads + 1;
    s.Stats.media_read_bytes <- s.Stats.media_read_bytes + xpline_size;
    channel_service t c xpline_fetch;
    let fetch_done = c.at in
    buf_insert t xpline fetch_done;
    (* Sequential prefetch: a second consecutive miss triggers a
       background fetch of the next XPLine, consuming channel time but
       not blocking the requester. *)
    if xpline = t.last_fetched + 1 && not (buf_mem t (xpline + 1)) then begin
      s.Stats.prefetches <- s.Stats.prefetches + 1;
      s.Stats.media_reads <- s.Stats.media_reads + 1;
      s.Stats.media_read_bytes <- s.Stats.media_read_bytes + xpline_size;
      channel_service t c xpline_fetch;
      buf_insert t (xpline + 1) c.at;
      c.at <- fetch_done
    end;
    t.last_fetched <- xpline;
    coherence_update t c ~xpline ~from_numa;
    c.at <- c.at +. remote
  end

(* [c.at] becomes the time the write enters the WPQ (the ADR persistent
   domain — what an sfence waits for).  The media transfer itself books
   the channels, and through them bounds throughput. *)
let write t c ~xpline ~bytes ~from_numa =
  assert (bytes > 0 && bytes <= xpline_size);
  let s = t.stats in
  let remote = remote_adder t ~from_numa in
  s.Stats.media_writes <- s.Stats.media_writes + 1;
  s.Stats.media_write_bytes <- s.Stats.media_write_bytes + xpline_size;
  let rmw_cost =
    if bytes < xpline_size then begin
      (* Partial XPLine update: the controller must first read the
         line (write amplification, FH1). *)
      s.Stats.rmw_reads <- s.Stats.rmw_reads + 1;
      s.Stats.rmw_read_bytes <- s.Stats.rmw_read_bytes + xpline_size;
      float_of_int xpline_size *. Config.read_byte_cost
    end
    else 0.0
  in
  let cost =
    Config.write_latency +. (float_of_int xpline_size *. Config.write_byte_cost) +. rmw_cost
  in
  channel_service t c cost;
  let write_done = c.at in
  coherence_update t c ~xpline ~from_numa;
  (* WPQ acceptance: fast when channels are free; back-pressured to
     the service start when the device is saturated. *)
  c.at <- write_done -. cost +. Config.write_latency +. remote

let reset_buffers t =
  Array.fill t.read_buf 0 (Array.length t.read_buf) (-1);
  Array.fill t.buf_ready 0 (Array.length t.buf_ready) 0.0;
  Array.fill t.channels 0 (Array.length t.channels) 0.0;
  t.head <- 0;
  t.last_fetched <- min_int;
  Hashtbl.reset t.owners
