(* Binary min-heap over three parallel arrays: unboxed times, sequence
   numbers and int values (the scheduler's thread ids, so that moving
   an entry writes no pointer and needs no write barrier).  The
   sequence number breaks ties so that events scheduled at the same
   instant are delivered in insertion order, which makes simulation
   runs deterministic.  Adding and popping allocate nothing once the
   arrays have grown to the queue's peak size.

   The sifts move a hole rather than swapping: the entry being placed
   stays in locals (its time unboxed) while each level it passes writes
   one entry, and it is written once where it settles. *)

type t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable values : int array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { times = [||]; seqs = [||]; values = [||]; size = 0; next_seq = 0 }

let is_empty q = q.size = 0

let length q = q.size

let grow q =
  let capacity = Array.length q.values in
  if q.size = capacity then begin
    let new_capacity = max 16 (2 * capacity) in
    let times = Array.make new_capacity 0.0 in
    let seqs = Array.make new_capacity 0 in
    let values = Array.make new_capacity 0 in
    Array.blit q.times 0 times 0 q.size;
    Array.blit q.seqs 0 seqs 0 q.size;
    Array.blit q.values 0 values 0 q.size;
    q.times <- times;
    q.seqs <- seqs;
    q.values <- values
  end

(* Move entry [j] into slot [i]. *)
let[@inline] move q ~into:i j =
  Array.unsafe_set q.times i (Array.unsafe_get q.times j);
  Array.unsafe_set q.seqs i (Array.unsafe_get q.seqs j);
  Array.unsafe_set q.values i (Array.unsafe_get q.values j)

let[@inline] set q i time seq value =
  Array.unsafe_set q.times i time;
  Array.unsafe_set q.seqs i seq;
  Array.unsafe_set q.values i value

(* Inlined into callers (outside the dev profile's opaque builds), so
   that a computed [time] goes into the array without being boxed. *)
let[@inline] add q ~time value =
  grow q;
  let seq = q.next_seq in
  q.next_seq <- seq + 1;
  let i = ref q.size in
  q.size <- !i + 1;
  (* sift up: the new entry is the latest, so it passes a parent only
     if that parent's time is strictly later *)
  let rising = ref true in
  while !rising && !i > 0 do
    let parent = (!i - 1) / 2 in
    if time < Array.unsafe_get q.times parent then begin
      move q ~into:!i parent;
      i := parent
    end
    else rising := false
  done;
  set q !i time seq value

(* Sift the entry [(time, seq, value)] down from the hole at the root
   of a heap of [q.size] entries.  The arrays are bound once: the loop's
   stores would otherwise make it reload them from [q] at every level. *)
let[@inline] sift_down_root q time seq value =
  let size = q.size and times = q.times and seqs = q.seqs and values = q.values in
  let i = ref 0 in
  let sinking = ref true in
  while !sinking do
    let left = (2 * !i) + 1 in
    if left >= size then sinking := false
    else begin
      let right = left + 1 in
      let c =
        if right < size then begin
          let tl = Array.unsafe_get times left and tr = Array.unsafe_get times right in
          if tr < tl || (tr = tl && Array.unsafe_get seqs right < Array.unsafe_get seqs left)
          then right
          else left
        end
        else left
      in
      let tc = Array.unsafe_get times c in
      if tc < time || (tc = time && Array.unsafe_get seqs c < seq) then begin
        Array.unsafe_set times !i tc;
        Array.unsafe_set seqs !i (Array.unsafe_get seqs c);
        Array.unsafe_set values !i (Array.unsafe_get values c);
        i := c
      end
      else sinking := false
    end
  done;
  Array.unsafe_set times !i time;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set values !i value

let[@inline] min_time q =
  if q.size = 0 then raise Not_found;
  Array.unsafe_get q.times 0

let pop_min q =
  if q.size = 0 then raise Not_found;
  let top = Array.unsafe_get q.values 0 in
  let last = q.size - 1 in
  let time = Array.unsafe_get q.times last
  and seq = Array.unsafe_get q.seqs last
  and value = Array.unsafe_get q.values last in
  q.size <- last;
  if last > 0 then sift_down_root q time seq value;
  top

(* Remove the earliest event and add [value] at [time] in one sift;
   the queue must not be empty. *)
let[@inline] replace_min q ~time value =
  let top = Array.unsafe_get q.values 0 in
  let seq = q.next_seq in
  q.next_seq <- seq + 1;
  sift_down_root q time seq value;
  top

(* [value] would take the largest sequence number, so it comes out
   first only if it is strictly earlier than every queued event. *)
let[@inline] push_pop q ~time value =
  if q.size = 0 || time < Array.unsafe_get q.times 0 then value
  else replace_min q ~time value
