module Pool = Nvm.Pool
module Layout = Pobj.Layout

type kind = Pmdk | Volatile_meta

type alloc_stats = {
  mutable allocs : int;
  mutable frees : int;
  mutable alloc_bytes : int;
}

let class_sizes =
  [|
    16; 24; 32; 48; 64; 96; 128; 192; 256; 384; 512; 768; 1024; 1536; 2048; 3072;
    4096; 6144; 8192;
  |]

(* On-pool metadata layout (Pmdk kind).  The whole undo/redo log fits
   in one 64-byte cache line so it persists atomically in the
   line-granularity crash model. *)
let hdr = Layout.create "pmalloc.hdr"

let f_magic = Layout.word hdr "magic"

let f_bump = Layout.word hdr "bump"

let f_lstate = Layout.word ~at:64 hdr "lstate"

let f_lclass = Layout.word hdr "lclass"

let f_lblock = Layout.word hdr "lblock"

let f_lold = Layout.word hdr "lold"

let f_ldest_pool = Layout.word hdr "ldest_pool"

let f_ldest_off = Layout.word hdr "ldest_off"

let f_heads =
  Layout.slots ~at:128 hdr "heads" ~stride:8 ~count:(Array.length class_sizes)

(* Data region starts past the heads (128 + 19*8 = 280), 64-aligned. *)
let data_start = Layout.seal ~size:384 hdr

let head_off cls = Layout.slot f_heads cls

let magic_value = 0x9AC7_0001

(* Log-state tags. *)
let l_none = 0

and l_bump = 1

and l_freelist = 2

and l_free = 3

let class_of size =
  let rec go i =
    if i >= Array.length class_sizes then
      invalid_arg (Printf.sprintf "Heap.alloc: size %d too large" size)
    else if class_sizes.(i) >= size then i
    else go (i + 1)
  in
  go 0

let align_of csize = if csize >= 64 then 64 else 8

let round_up x align = (x + align - 1) / align * align

type pool_state = {
  pool : Pool.t;
  hd : Pobj.obj; (* header object at offset 0, fields per [hdr] *)
  mutex : Des.Sync.Mutex.t;
  (* Volatile_meta bookkeeping (not crash consistent, by design). *)
  mutable vbump : int;
  vfree : int list array;
  vclass : (int, int) Hashtbl.t; (* offset -> size class *)
}

type t = {
  machine : Nvm.Machine.t;
  kind : kind;
  mutable pools : pool_state array;
  stats : alloc_stats;
  mutable fill : char option;
}

let init_pmdk_pool hd =
  Pobj.set_int hd f_magic magic_value;
  Pobj.set_int hd f_bump data_start;
  Pobj.persist hd 0 16

(* The volatile half of a pool's allocator, built from the pool alone:
   a fresh mutex and, for [Volatile_meta], empty lists (that metadata
   does not survive a crash, by design).  [create] runs it on a
   formatted pool, [recover] on a crashed one. *)
let attach pool =
  {
    pool;
    hd = Pobj.make pool 0;
    mutex = Des.Sync.Mutex.create ();
    vbump = data_start;
    vfree = Array.make (Array.length class_sizes) [];
    vclass = Hashtbl.create 512;
  }

let create machine ?(volatile_pool = false) ~kind ~name ~numa_pools
    ?(capacity = Pool.max_capacity) () =
  assert (numa_pools >= 1);
  let make_pool i =
    let numa = i mod Nvm.Machine.numa_count machine in
    let pool =
      Pool.create machine ~volatile:volatile_pool
        ~name:(Printf.sprintf "%s.%d" name i)
        ~numa ~capacity ()
    in
    if kind = Pmdk then init_pmdk_pool (Pobj.make pool 0);
    attach pool
  in
  {
    machine;
    kind;
    pools = Array.init numa_pools make_pool;
    stats = { allocs = 0; frees = 0; alloc_bytes = 0 };
    fill = None;
  }

let machine t = t.machine

let stats t = t.stats

let pool_by_numa t numa = t.pools.(numa mod Array.length t.pools).pool

let pool t ptr = Pptr.resolve t.machine ptr

let pick_pool t = function
  | Some numa -> t.pools.(numa mod Array.length t.pools)
  | None -> t.pools.(Des.Sched.current_numa () mod Array.length t.pools)

let out_of_memory pool =
  failwith (Printf.sprintf "Heap: pool %s exhausted" (Pool.name pool))

(* A malloc-to destination is the word at [dest_off] in [dest_pool];
   [no_dest] as the offset means none (and the pool is ignored).  The
   pair travels as two arguments, so an allocation builds no option. *)
let no_dest = -1

(* Persist the destination pointer of a malloc-to allocation. *)
let publish_dest dest_pool dest_off block_ptr =
  if dest_off <> no_dest then begin
    Pool.write_int dest_pool dest_off block_ptr;
    Pool.persist dest_pool dest_off 8
  end

let pmdk_alloc_locked ps ~dest_pool ~dest_off size =
  let hd = ps.hd in
  let cls = class_of size in
  let csize = class_sizes.(cls) in
  let head = Pobj.read_int hd (head_off cls) in
  let from_list = head <> Pptr.null in
  let bump = if from_list then 0 else Pobj.get_int hd f_bump in
  let block_off =
    if from_list then Pptr.off head
    else begin
      let block = round_up (bump + 8) (align_of csize) in
      if block + csize > Pool.capacity ps.pool then out_of_memory ps.pool;
      block
    end
  in
  let lkind = if from_list then l_freelist else l_bump in
  let block_ptr = Pptr.make ~pool:(Pool.id ps.pool) ~off:block_off in
  (* 1. Undo/redo log entry (one line), persisted first. *)
  Pobj.set_int hd f_lclass cls;
  Pobj.set_int hd f_lblock block_ptr;
  Pobj.set_int hd f_lold (if from_list then head else bump);
  if dest_off <> no_dest then begin
    Pobj.set_int hd f_ldest_pool (Pool.id dest_pool + 1);
    Pobj.set_int hd f_ldest_off dest_off
  end
  else begin
    Pobj.set_int hd f_ldest_pool 0;
    Pobj.set_int hd f_ldest_off 0
  end;
  Pobj.set_int hd f_lstate lkind;
  Pobj.persist hd (Layout.off f_lstate) 64;
  (* 2. Metadata update + object header, persisted second. *)
  if lkind = l_freelist then begin
    let next = Pobj.read_int hd block_off in
    Pobj.write_int hd (head_off cls) next;
    Pobj.clwb hd (head_off cls)
  end
  else begin
    Pobj.set_int hd f_bump (block_off + csize);
    Pobj.flush_field hd f_bump
  end;
  Pobj.write_int hd (block_off - 8) cls;
  Pobj.clwb hd (block_off - 8);
  Pobj.fence hd;
  (* 3. malloc-to: publish the pointer (persist) before committing. *)
  publish_dest dest_pool dest_off block_ptr;
  (* 4. Commit: clear the log. *)
  Pobj.set_int hd f_lstate l_none;
  Pobj.persist_field hd f_lstate;
  block_ptr

(* Under the pool's mutex, without a closure per allocation. *)
let pmdk_alloc ps ~dest_pool ~dest_off size =
  Des.Sync.Mutex.lock ps.mutex;
  match pmdk_alloc_locked ps ~dest_pool ~dest_off size with
  | block_ptr ->
      Des.Sync.Mutex.unlock ps.mutex;
      block_ptr
  | exception e ->
      Des.Sync.Mutex.unlock ps.mutex;
      raise e

let pmdk_free ps ptr =
  let hd = ps.hd in
  Des.Sync.Mutex.with_lock ps.mutex @@ fun () ->
  let block_off = Pptr.off ptr in
  let cls = Pobj.read_int hd (block_off - 8) in
  assert (cls >= 0 && cls < Array.length class_sizes);
  let head = Pobj.read_int hd (head_off cls) in
  Pobj.set_int hd f_lclass cls;
  Pobj.set_int hd f_lblock ptr;
  Pobj.set_int hd f_lold head;
  Pobj.set_int hd f_ldest_pool 0;
  Pobj.set_int hd f_lstate l_free;
  Pobj.persist hd (Layout.off f_lstate) 64;
  (* Persist the block's next link before publishing it as head, so a
     crash can never expose a head with a garbage next pointer. *)
  Pobj.write_int hd block_off head;
  Pobj.persist hd block_off 8;
  Pobj.write_int hd (head_off cls) ptr;
  Pobj.persist hd (head_off cls) 8;
  Pobj.set_int hd f_lstate l_none;
  Pobj.persist_field hd f_lstate

let volatile_alloc ps ~dest_pool ~dest_off size =
  let p = ps.pool in
  let cls = class_of size in
  let csize = class_sizes.(cls) in
  let block_off =
    match ps.vfree.(cls) with
    | off :: rest ->
        ps.vfree.(cls) <- rest;
        off
    | [] ->
        let block = round_up (ps.vbump + 8) (align_of csize) in
        if block + csize > Pool.capacity p then out_of_memory p;
        ps.vbump <- block + csize;
        block
  in
  Hashtbl.replace ps.vclass block_off cls;
  let block_ptr = Pptr.make ~pool:(Pool.id p) ~off:block_off in
  publish_dest dest_pool dest_off block_ptr;
  block_ptr

let volatile_free ps ptr =
  let off = Pptr.off ptr in
  match Hashtbl.find_opt ps.vclass off with
  | None -> invalid_arg "Heap.free: unknown block (volatile heap)"
  | Some cls ->
      Hashtbl.remove ps.vclass off;
      ps.vfree.(cls) <- off :: ps.vfree.(cls)

let alloc_dispatch t ~numa ~dest_pool ~dest_off size =
  let ps = pick_pool t numa in
  let ptr =
    match t.kind with
    | Pmdk -> pmdk_alloc ps ~dest_pool ~dest_off size
    | Volatile_meta -> volatile_alloc ps ~dest_pool ~dest_off size
  in
  t.stats.allocs <- t.stats.allocs + 1;
  t.stats.alloc_bytes <- t.stats.alloc_bytes + class_sizes.(class_of size);
  (match t.fill with Some c -> Pool.fill_stale ps.pool (Pptr.off ptr) size c | None -> ());
  ptr

let set_fill t fill = t.fill <- fill

(* [alloc_dispatch] inside an [Alloc] span, without a closure. *)
let alloc_in_span t ~numa ~dest_pool ~dest_off size =
  let span = Obs.Span.start Obs.Span.Alloc in
  match alloc_dispatch t ~numa ~dest_pool ~dest_off size with
  | ptr ->
      Obs.Span.stop span;
      ptr
  | exception e ->
      Obs.Span.stop span;
      raise e

let alloc t ?numa size =
  alloc_in_span t ~numa ~dest_pool:t.pools.(0).pool ~dest_off:no_dest size

let alloc_to t ?numa ~size ~dest_pool ~dest_off () =
  alloc_in_span t ~numa ~dest_pool ~dest_off size

let owner_state t ptr =
  let pid = Pptr.pool ptr in
  let rec go i =
    if i >= Array.length t.pools then
      invalid_arg "Heap.free: pointer does not belong to this heap"
    else if Pool.id t.pools.(i).pool = pid then t.pools.(i)
    else go (i + 1)
  in
  go 0

let free t ptr =
  Obs.Span.with_phase Obs.Span.Alloc (fun () ->
      let ps = owner_state t ptr in
      (match t.kind with
      | Pmdk -> pmdk_free ps ptr
      | Volatile_meta -> volatile_free ps ptr);
      t.stats.frees <- t.stats.frees + 1)

(* Post-crash log recovery (Pmdk).  The commit point of an operation
   is clearing the log state.  A dest pointer that already holds the
   logged block proves the operation's metadata persists (program
   order put the metadata fence before the dest fence), so the
   operation is complete; otherwise we roll the metadata back. *)
let recover_pmdk_pool ps =
  let hd = ps.hd in
  let state = Pobj.get_int hd f_lstate in
  if state <> l_none then begin
    let cls = Pobj.get_int hd f_lclass in
    let block = Pobj.get_int hd f_lblock in
    let old = Pobj.get_int hd f_lold in
    let dest_pool = Pobj.get_int hd f_ldest_pool in
    let completed =
      dest_pool > 0
      &&
      let dest_pool = Pool.of_id (Pool.machine ps.pool) (dest_pool - 1) in
      let dest = Pobj.make dest_pool (Pobj.get_int hd f_ldest_off) in
      Pobj.read_int dest 0 = block
    in
    if not completed then begin
      if state = l_bump then Pobj.set_int hd f_bump old
      else if state = l_freelist then Pobj.write_int hd (head_off cls) old
      else if state = l_free then begin
        (* Free is complete once the head points at the block. *)
        if Pobj.read_int hd (head_off cls) <> block then
          Pobj.write_int hd (head_off cls) old
      end;
      Pobj.flush_field hd f_bump;
      Pobj.flush hd (head_off cls) 8
    end;
    Pobj.set_int hd f_lstate l_none;
    Pobj.persist_field hd f_lstate
  end

let recover t =
  Obs.Span.with_phase Obs.Span.Recovery @@ fun () ->
  if t.kind = Pmdk then Array.iter recover_pmdk_pool t.pools;
  t.pools <- Array.map (fun ps -> attach ps.pool) t.pools

let remaining t ~numa =
  let ps = t.pools.(numa mod Array.length t.pools) in
  match t.kind with
  | Pmdk -> Pool.capacity ps.pool - Pobj.get_int ps.hd f_bump
  | Volatile_meta -> Pool.capacity ps.pool - ps.vbump
