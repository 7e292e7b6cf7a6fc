(** The route instruments every overlay shares.

    One recorder per overlay instance: [route_requests] and
    [route_failures] counters plus a [route_hops] histogram, all labeled
    [overlay=<name>] and any extra labels, and one [Route_hop] span per
    forwarding step of a successful route when a tracer is attached.
    Every overlay's [route] ends in {!record}, so the accounting is
    written once. *)

type t

val create :
  ?metrics:Metrics.t ->
  ?labels:Metrics.labels ->
  ?trace:Trace.t ->
  overlay:string ->
  unit ->
  t option
(** [None] without [metrics] (routing is then unobserved, even with a
    [trace]). *)

val record : t option -> int list option -> unit
(** Account one finished route: the request, then its hop count (hop
    list length minus one) and spans on success, or a failure. *)
