module Machine = Nvm.Machine

let line_size = 64

type stats = {
  mutable crash_points : int;
  mutable states : int;
  mutable duplicates : int;
  mutable truncated_points : int;
}

type state = { at : int; label : string; restore : unit -> unit }

exception Stop

(* Per-line survivor choices at a crash point: [choices.(0)] is the
   fenced media content (what a pure-ADR crash leaves); the rest are
   snapshots the line took since its last fenced persist, newest
   first — any of them may have reached the media through a cache
   eviction or an un-fenced clwb draining from the WPQ. *)
type pending = { p_pool : int; p_line : int; choices : string array }

let iter ?(budget_per_point = 64) ?(seed = 0x5EEDL) ?(context = fun _ -> 0) ~trace ~f () =
  let machine = Trace.machine trace in
  let pools = Nvm.Pool.all machine in
  let evs = Trace.events trace in
  let n = Array.length evs in
  (* All lines ever named by the trace, sorted: the dedup-hash domain.
     Lines outside it are identical across every crash image. *)
  let touched =
    let tbl = Hashtbl.create 256 in
    Array.iter
      (fun ev ->
        match ev with
        | Trace.Store { pool; line; _ }
        | Trace.Clwb { pool; line; _ }
        | Trace.Drain { pool; line; _ } ->
            Hashtbl.replace tbl (pool, line) ()
        | Trace.Fence _ -> ())
      evs;
    let l = Hashtbl.fold (fun k () acc -> k :: acc) tbl [] in
    Array.of_list (List.sort compare l)
  in
  (* Current fenced media image per persistent pool, evolved by replay:
     the image recorded at the trace's start (none if the pool is
     younger), zero-extended over every line the trace names, since a
     pool may grow while the trace records. *)
  let media : (int, Bytes.t) Hashtbl.t = Hashtbl.create 16 in
  let media_of pool =
    match Hashtbl.find_opt media pool with
    | Some b -> b
    | None ->
        let base = Option.value (Trace.base_media trace pool) ~default:Bytes.empty in
        let len =
          Array.fold_left
            (fun len (p, line) -> if p = pool then max len ((line + 1) * line_size) else len)
            (Bytes.length base) touched
        in
        let b = Bytes.make len '\000' in
        Bytes.blit base 0 b 0 (Bytes.length base);
        Hashtbl.replace media pool b;
        b
  in
  (* Un-fenced snapshot candidates per line, newest first. *)
  let cand : (int * int, (int * string) list ref) Hashtbl.t = Hashtbl.create 64 in
  let add_cand pool line seq data =
    match Hashtbl.find_opt cand (pool, line) with
    | Some r -> r := (seq, data) :: !r
    | None -> Hashtbl.add cand (pool, line) (ref [ (seq, data) ])
  in
  let prune pool line upto =
    match Hashtbl.find_opt cand (pool, line) with
    | None -> ()
    | Some r ->
        r := List.filter (fun (s, _) -> s > upto) !r;
        if !r = [] then Hashtbl.remove cand (pool, line)
  in
  let apply_media pool line data =
    Bytes.blit_string data 0 (media_of pool) (line * line_size) line_size
  in
  let staged : (int, (int * int * string * int) list ref) Hashtbl.t =
    Hashtbl.create 4
  in
  let stats = { crash_points = 0; states = 0; duplicates = 0; truncated_points = 0 } in
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 1024 in
  let rng = Des.Rng.create ~seed in
  let restore () =
    Machine.crash machine Machine.Strict;
    List.iter
      (fun p ->
        Nvm.Pool.restore p
          (if Nvm.Pool.is_volatile p then Bytes.empty else media_of (Nvm.Pool.id p)))
      pools
  in
  let state_key at =
    let buf = Buffer.create (Array.length touched * (line_size + 8)) in
    Buffer.add_string buf (string_of_int (context at));
    Buffer.add_char buf '|';
    Array.iter
      (fun (pool, line) ->
        Buffer.add_string buf (string_of_int pool);
        Buffer.add_char buf ':';
        Buffer.add_string buf (string_of_int line);
        Buffer.add_subbytes buf (media_of pool) (line * line_size) line_size)
      touched;
    Digest.string (Buffer.contents buf)
  in
  (* Yield the current media (with any survivor overrides already
     blitted in) as one crash state, deduplicating by content hash. *)
  let yield at label =
    let key = state_key at in
    if Hashtbl.mem seen key then stats.duplicates <- stats.duplicates + 1
    else begin
      Hashtbl.replace seen key ();
      stats.states <- stats.states + 1;
      f { at; label; restore }
    end
  in
  let crash_point at =
    stats.crash_points <- stats.crash_points + 1;
    let pending =
      Hashtbl.fold
        (fun (pool, line) r acc ->
          let base =
            Bytes.sub_string (media_of pool) (line * line_size) line_size
          in
          let snaps =
            List.fold_left
              (fun acc (_, d) ->
                if d = base || List.mem d acc then acc else d :: acc)
              []
              (List.rev !r) (* oldest..newest; fold keeps newest last *)
          in
          match List.rev snaps (* newest first *) with
          | [] -> acc
          | snaps ->
              { p_pool = pool; p_line = line; choices = Array.of_list (base :: snaps) }
              :: acc)
        cand []
    in
    let pending =
      Array.of_list
        (List.sort (fun a b -> compare (a.p_pool, a.p_line) (b.p_pool, b.p_line)) pending)
    in
    let k = Array.length pending in
    if k = 0 then yield at "fenced image"
    else begin
      let with_vector vec label =
        Array.iteri
          (fun i c -> if c > 0 then apply_media pending.(i).p_pool pending.(i).p_line pending.(i).choices.(c))
          vec;
        Fun.protect
          ~finally:(fun () ->
            Array.iteri
              (fun i c ->
                if c > 0 then
                  apply_media pending.(i).p_pool pending.(i).p_line pending.(i).choices.(0))
              vec)
          (fun () -> yield at (label ()))
      in
      let describe vec () =
        let b = Buffer.create 64 in
        Buffer.add_string b "survivors";
        Array.iteri
          (fun i c ->
            if c > 0 then
              Buffer.add_string b
                (Printf.sprintf " p%d:L%d#%d" pending.(i).p_pool pending.(i).p_line c))
          vec;
        if Buffer.length b = String.length "survivors" then "fenced image"
        else Buffer.contents b
      in
      let total =
        Array.fold_left
          (fun acc p ->
            if acc > budget_per_point then acc
            else acc * Array.length p.choices)
          1 pending
      in
      if total <= budget_per_point then begin
        (* Exhaustive mixed-radix sweep; vector 0 = pure fenced image. *)
        let vec = Array.make k 0 in
        let rec next i =
          if i < 0 then false
          else if vec.(i) + 1 < Array.length pending.(i).choices then begin
            vec.(i) <- vec.(i) + 1;
            true
          end
          else begin
            vec.(i) <- 0;
            next (i - 1)
          end
        in
        let continue = ref true in
        while !continue do
          with_vector vec (describe vec);
          continue := next (k - 1)
        done
      end
      else begin
        stats.truncated_points <- stats.truncated_points + 1;
        let budget = ref budget_per_point in
        let emit vec =
          if !budget > 0 then begin
            decr budget;
            with_vector vec (describe vec)
          end
        in
        (* Always: the pure fenced image and the everything-newest image. *)
        emit (Array.make k 0);
        emit (Array.map (fun _ -> 1) pending);
        (* Each line surviving alone, at each of its snapshots. *)
        Array.iteri
          (fun i p ->
            for c = 1 to Array.length p.choices - 1 do
              let vec = Array.make k 0 in
              vec.(i) <- c;
              emit vec
            done)
          pending;
        (* Random combinations up to the budget. *)
        while !budget > 0 do
          let vec =
            Array.map (fun p -> Des.Rng.int rng (Array.length p.choices)) pending
          in
          emit vec
        done
      end
    end
  in
  (try
     for i = 0 to n - 1 do
       match evs.(i) with
       | Trace.Store { pool; line; data } -> add_cand pool line i data
       | Trace.Clwb { tid; pool; line; data } ->
           add_cand pool line i data;
           (match Hashtbl.find_opt staged tid with
           | Some r -> r := (pool, line, data, i) :: !r
           | None -> Hashtbl.add staged tid (ref [ (pool, line, data, i) ]))
       | Trace.Drain { pool; line; data } ->
           apply_media pool line data;
           prune pool line i
       | Trace.Fence { tid } ->
           crash_point i;
           (match Hashtbl.find_opt staged tid with
           | None -> ()
           | Some r ->
               List.iter
                 (fun (pool, line, data, seq) ->
                   apply_media pool line data;
                   prune pool line seq)
                 (List.rev !r);
               Hashtbl.remove staged tid)
     done;
     crash_point n
   with Stop -> ());
  stats
