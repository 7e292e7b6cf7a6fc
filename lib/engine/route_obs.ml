type t = {
  requests : Metrics.counter;
  failures : Metrics.counter;
  hops : Metrics.histogram;
  tracer : Trace.t option;
}

let create ?metrics ?(labels = []) ?trace ~overlay () =
  Option.map
    (fun m ->
      let labels = ("overlay", overlay) :: labels in
      {
        requests = Metrics.counter m ~labels "route_requests";
        failures = Metrics.counter m ~labels "route_failures";
        hops = Metrics.histogram m ~labels "route_hops";
        tracer = trace;
      })
    metrics

let record obs result =
  match obs with
  | None -> ()
  | Some o ->
    Metrics.incr o.requests;
    (match result with
    | Some hops ->
      Metrics.observe o.hops (float_of_int (List.length hops - 1));
      Option.iter
        (fun tr ->
          let rec spans = function
            | a :: (b :: _ as rest) ->
              Trace.emit tr ~peer:b Trace.Route_hop ~node:a;
              spans rest
            | [ _ ] | [] -> ()
          in
          spans hops)
        o.tracer
    | None -> Metrics.incr o.failures)
