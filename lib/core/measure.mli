(** Measurement of overlay routing quality.

    The metric throughout the paper is {e stretch}: accumulated physical
    latency of the route the overlay actually takes, divided by the
    shortest-path latency between the endpoints.  Logical hop counts are
    collected alongside (Fig. 2). *)

type sample = {
  src : int;
  dst : int;
  hops : int;  (** logical overlay hops *)
  latency : float;  (** accumulated physical latency of the route, ms *)
  shortest : float;  (** direct shortest-path latency, ms *)
}

type report = {
  samples : sample list;
  stretch : Prelude.Stats.summary;
  hops : Prelude.Stats.summary;
}

val path_latency : Topology.Oracle.t -> int list -> float
(** Physical latency accumulated along consecutive hop pairs. *)

val route_stretch : ?pairs:int -> Builder.t -> report
(** Sample [pairs] (default: twice the overlay size, as in the paper)
    random source/destination pairs among current members and measure
    their routes.  Pairs with [src = dst] are redrawn. *)

val can_route_report : ?pairs:int -> Builder.t -> report
(** Same measurement over plain greedy CAN routing (no expressways), for
    the eCAN-vs-CAN comparison of Fig. 2. *)

val neighbor_quality : Builder.t -> Prelude.Stats.summary
(** Over every filled expressway table slot: ratio of the distance to the
    chosen representative over the distance to the best possible member of
    that region (1.0 = optimal selection everywhere). *)
