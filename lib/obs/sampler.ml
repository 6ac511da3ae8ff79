type t = {
  machine : Nvm.Machine.t;
  interval : float;
  mutable rev_samples : (float * Nvm.Stats.t) list;
  mutable stopped : bool;
}

let create ~machine ?(interval = 20e-6) () =
  if not (interval > 0.0) then invalid_arg "Sampler.create: interval must be positive";
  { machine; interval; rev_samples = []; stopped = false }

let record t now = t.rev_samples <- (now, Nvm.Machine.total_stats t.machine) :: t.rev_samples

let spawn t sched =
  t.stopped <- false;
  Des.Sched.spawn sched ~name:"obs.sampler" (fun () ->
      record t (Des.Sched.now sched);
      let rec loop () =
        Des.Sched.delay t.interval;
        record t (Des.Sched.now sched);
        if not t.stopped then loop ()
      in
      loop ())

let stop t = t.stopped <- true

let samples t = List.rev t.rev_samples

type rate = {
  t_us : float;
  read_mbps : float;
  write_mbps : float;
  dir_write_mbps : float;
  flushes_per_s : float;
  fences_per_s : float;
}

let rates t =
  let rec go acc = function
    | (t0, s0) :: ((t1, s1) :: _ as rest) ->
        let dt = t1 -. t0 in
        if dt <= 0.0 then go acc rest
        else begin
          let d = Nvm.Stats.diff s1 s0 in
          let mbps bytes = float_of_int bytes /. dt /. 1e6 in
          let row =
            {
              t_us = t1 *. 1e6;
              read_mbps = mbps (Nvm.Stats.total_read_bytes d);
              write_mbps = mbps (Nvm.Stats.total_write_bytes d);
              dir_write_mbps = mbps d.Nvm.Stats.dir_write_bytes;
              flushes_per_s = float_of_int d.Nvm.Stats.flushes /. dt;
              fences_per_s = float_of_int d.Nvm.Stats.fences /. dt;
            }
          in
          go (row :: acc) rest
        end
    | _ -> List.rev acc
  in
  go [] (samples t)

let to_json t =
  Json.List
    (List.map
       (fun r ->
         Json.Obj
           [
             ("t_us", Json.Float r.t_us);
             ("read_mbps", Json.Float r.read_mbps);
             ("write_mbps", Json.Float r.write_mbps);
             ("dir_write_mbps", Json.Float r.dir_write_mbps);
             ("flushes_per_s", Json.Float r.flushes_per_s);
             ("fences_per_s", Json.Float r.fences_per_s);
           ])
       (rates t))
