module Mutex = struct
  type t = { mutable locked : bool; waiters : Sched.Waitq.t }

  let create () = { locked = false; waiters = Sched.Waitq.create () }

  let rec lock t =
    if not t.locked then t.locked <- true
    else begin
      Sched.Waitq.wait t.waiters;
      lock t
    end

  let unlock t =
    t.locked <- false;
    match Sched.self () with
    | Some sched -> Sched.Waitq.signal_one sched t.waiters
    | None -> ()

  let with_lock t f =
    lock t;
    match f () with
    | v ->
        unlock t;
        v
    | exception exn ->
        unlock t;
        raise exn

  let locked t = t.locked
end
