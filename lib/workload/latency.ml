type t = {
  rng : Des.Rng.t;
  sample_rate : float;
  mutable samples : float array;
  mutable size : int;
  mutable sorted : bool;
}

let create ?(sample_rate = 0.1) rng =
  { rng; sample_rate; samples = Array.make 1024 0.0; size = 0; sorted = false }

let should_sample t = t.sample_rate >= 1.0 || Des.Rng.float t.rng < t.sample_rate

let grow t =
  let bigger = Array.make (2 * t.size) 0.0 in
  Array.blit t.samples 0 bigger 0 t.size;
  t.samples <- bigger

(* Inlined into callers (outside the dev profile's opaque builds), so
   that a computed latency is stored without being boxed. *)
let[@inline] record t latency =
  if t.size = Array.length t.samples then grow t;
  t.samples.(t.size) <- latency;
  t.size <- t.size + 1;
  t.sorted <- false

let count t = t.size

(* Heapsort of [a.(0 .. n-1)] in place.  Monomorphic, so no comparison
   boxes its operands (polymorphic [compare] boxes every float it
   reads); latencies are never NaN, so [<] orders them exactly as
   [compare] does and the sorted values are the same. *)
let rec sift_down (a : float array) n i =
  let l = (2 * i) + 1 in
  if l < n then begin
    let r = l + 1 in
    let c = if r < n && Array.unsafe_get a l < Array.unsafe_get a r then r else l in
    let ai = Array.unsafe_get a i and ac = Array.unsafe_get a c in
    if ai < ac then begin
      Array.unsafe_set a i ac;
      Array.unsafe_set a c ai;
      sift_down a n c
    end
  end

let sort_prefix (a : float array) n =
  for i = (n / 2) - 1 downto 0 do
    sift_down a n i
  done;
  for last = n - 1 downto 1 do
    let top = Array.unsafe_get a 0 in
    Array.unsafe_set a 0 (Array.unsafe_get a last);
    Array.unsafe_set a last top;
    sift_down a last 0
  done

let ensure_sorted t =
  if not t.sorted then begin
    sort_prefix t.samples t.size;
    t.sorted <- true
  end

let percentile t p =
  if not (p >= 0.0 && p <= 100.0) then
    invalid_arg (Printf.sprintf "Latency.percentile: %g outside [0, 100]" p);
  if t.size = 0 then 0.0
  else begin
    ensure_sorted t;
    let idx = int_of_float (Float.of_int (t.size - 1) *. p /. 100.0) in
    t.samples.(idx)
  end

let mean t =
  if t.size = 0 then 0.0
  else begin
    let sum = ref 0.0 in
    for i = 0 to t.size - 1 do
      sum := !sum +. t.samples.(i)
    done;
    !sum /. float_of_int t.size
  end

let max t =
  if t.size = 0 then 0.0
  else begin
    let m = ref t.samples.(0) in
    for i = 1 to t.size - 1 do
      if t.samples.(i) > !m then m := t.samples.(i)
    done;
    !m
  end

let merge ~dst ~src =
  for i = 0 to src.size - 1 do
    record dst src.samples.(i)
  done
