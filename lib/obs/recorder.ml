type t = { span : Span.t; sampler : Sampler.t option }

let create machine ?sample_interval () =
  {
    span = Span.create ~machine ();
    sampler =
      Option.map (fun interval -> Sampler.create ~machine ~interval ()) sample_interval;
  }

let to_json t =
  Json.Obj
    [
      ("spans", Span.to_json t.span);
      ( "timeline",
        match t.sampler with Some s -> Sampler.to_json s | None -> Json.Null );
    ]
