type t = {
  rng : Des.Rng.t;
  n : int;
  theta : float;
  alpha : float;
  zetan : float;
  eta : float;
  threshold : float; (* 1 + 0.5^theta *)
  scramble : bool;
}

let zeta n theta =
  let acc = ref 0.0 in
  for i = 1 to n do
    acc := !acc +. (1.0 /. Float.pow (float_of_int i) theta)
  done;
  !acc

(* zeta(n, theta) is O(n) and every thread's stream of a run asks for
   the same one: the last (n, theta) and its sum are kept. *)
let last_zeta = ref (0, 0.0, 0.0)

let zeta_n n theta =
  let n', theta', z = !last_zeta in
  if n = n' && Float.equal theta theta' then z
  else begin
    let z = zeta n theta in
    last_zeta := (n, theta, z);
    z
  end

let create ?(scramble = true) ~n ~theta rng =
  assert (n > 0 && theta >= 0.0 && theta < 1.0);
  if theta = 0.0 then
    { rng; n; theta; alpha = 0.0; zetan = 0.0; eta = 0.0; threshold = 0.0; scramble }
  else begin
    let zetan = zeta_n n theta in
    let zeta2 = zeta 2 theta in
    let alpha = 1.0 /. (1.0 -. theta) in
    let eta =
      (1.0 -. Float.pow (2.0 /. float_of_int n) (1.0 -. theta))
      /. (1.0 -. (zeta2 /. zetan))
    in
    { rng; n; theta; alpha; zetan; eta; threshold = 1.0 +. Float.pow 0.5 theta; scramble }
  end

let spread rank n =
  (* FNV-style scramble keeping the result in [0, n) *)
  let h = rank * 0x100000001B3 land max_int in
  let h = h lxor (h lsr 33) in
  h mod n

let next t =
  if t.theta = 0.0 then Des.Rng.int t.rng t.n
  else begin
    (* [Des.Rng.float], drawn as an int so that no boxed float crosses
       the call *)
    let u = float_of_int (Des.Rng.bits53 t.rng) *. (1.0 /. 9007199254740992.0) in
    let uz = u *. t.zetan in
    let rank =
      if uz < 1.0 then 0
      else if uz < t.threshold then 1
      else
        int_of_float
          (float_of_int t.n *. Float.pow ((t.eta *. u) -. t.eta +. 1.0) t.alpha)
    in
    let rank = if rank >= t.n then t.n - 1 else rank in
    if t.scramble then spread rank t.n else rank
  end

let n t = t.n
