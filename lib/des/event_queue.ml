(* Binary min-heap over three parallel arrays: unboxed times, sequence
   numbers and values.  The sequence number breaks ties so that events
   scheduled at the same instant are delivered in insertion order, which
   makes simulation runs deterministic.  Adding and popping allocate
   nothing once the arrays have grown to the queue's peak size. *)

type 'a t = {
  dummy : 'a; (* fills vacated value slots so popped values can be collected *)
  mutable times : float array;
  mutable seqs : int array;
  mutable values : 'a array;
  mutable size : int;
  mutable next_seq : int;
}

let create ~dummy () =
  { dummy; times = [||]; seqs = [||]; values = [||]; size = 0; next_seq = 0 }

let is_empty q = q.size = 0

let length q = q.size

let earlier q i j =
  let ti = Array.unsafe_get q.times i and tj = Array.unsafe_get q.times j in
  ti < tj || (ti = tj && Array.unsafe_get q.seqs i < Array.unsafe_get q.seqs j)

let swap q i j =
  let t = q.times.(i) and s = q.seqs.(i) and v = q.values.(i) in
  q.times.(i) <- q.times.(j);
  q.seqs.(i) <- q.seqs.(j);
  q.values.(i) <- q.values.(j);
  q.times.(j) <- t;
  q.seqs.(j) <- s;
  q.values.(j) <- v

let rec sift_up q i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if earlier q i parent then begin
      swap q i parent;
      sift_up q parent
    end
  end

let rec sift_down q i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let smallest = if left < q.size && earlier q left i then left else i in
  let smallest = if right < q.size && earlier q right smallest then right else smallest in
  if smallest <> i then begin
    swap q i smallest;
    sift_down q smallest
  end

let grow q =
  let capacity = Array.length q.values in
  if q.size = capacity then begin
    let new_capacity = max 16 (2 * capacity) in
    let times = Array.make new_capacity 0.0 in
    let seqs = Array.make new_capacity 0 in
    let values = Array.make new_capacity q.dummy in
    Array.blit q.times 0 times 0 q.size;
    Array.blit q.seqs 0 seqs 0 q.size;
    Array.blit q.values 0 values 0 q.size;
    q.times <- times;
    q.seqs <- seqs;
    q.values <- values
  end

(* Inlined into callers (outside the dev profile's opaque builds), so
   that a computed [time] goes into the array without being boxed. *)
let[@inline] add q ~time value =
  grow q;
  let i = q.size in
  q.times.(i) <- time;
  q.seqs.(i) <- q.next_seq;
  q.values.(i) <- value;
  q.next_seq <- q.next_seq + 1;
  q.size <- i + 1;
  sift_up q i

let[@inline] min_time q =
  if q.size = 0 then raise Not_found;
  q.times.(0)

let pop_min q =
  if q.size = 0 then raise Not_found;
  let top = q.values.(0) in
  let last = q.size - 1 in
  q.times.(0) <- q.times.(last);
  q.seqs.(0) <- q.seqs.(last);
  q.values.(0) <- q.values.(last);
  q.values.(last) <- q.dummy;
  q.size <- last;
  if last > 0 then sift_down q 0;
  top
