(** Neighbor-selection strategies for proximity-neighbor selection.

    When an overlay node must pick its representative for a high-order
    zone (eCAN), a finger arc (Chord) or a prefix region (Pastry), the
    strategy decides which member of the region it takes:

    - [Random_pick] — ignore topology (the paper's baseline);
    - [Hybrid] — the paper's contribution: one soft-state map lookup for
      candidates near the node's own landmark number, then at most [rtts]
      real RTT probes to pick the closest;
    - [Optimal] — the physically closest member, as if infinitely many
      RTTs were allowed (the paper's "optimal" curve isolating the
      overlay's structural penalty). *)

type t =
  | Random_pick
  | Hybrid of { rtts : int; lookup_results : int; lookup_ttl : int }
  | Load_aware of { rtts : int; lookup_results : int; lookup_ttl : int; load_weight : float }
      (** §6 QoS variant: probe candidates like [Hybrid], but rank them by
          [rtt * (1 + load_weight * load)] using the load statistics
          piggybacked on the soft-state entries — trading a little
          network distance for spare forwarding capacity. *)
  | Optimal

val hybrid : ?lookup_results:int -> ?lookup_ttl:int -> rtts:int -> unit -> t
(** [Hybrid] with defaults [lookup_results = max 16 rtts], [lookup_ttl = 2]. *)

val load_aware :
  ?lookup_results:int -> ?lookup_ttl:int -> ?load_weight:float -> rtts:int -> unit -> t
(** [Load_aware] with the same lookup defaults and [load_weight = 1.0]. *)

val to_string : t -> string

(** {1 Selection policies for the ring-like overlays}

    Chord fingers, Pastry table slots and Koorde preferred entries are
    filled by a {!pick} per slot.  The vector-then-probe loop behind the
    paper's hybrid lives here, once. *)

type pick = node:int -> candidates:int array -> int option
(** Choose [node]'s entry for one table slot among [candidates]. *)

val random_pick : Prelude.Rng.t -> pick
(** Uniform choice, one [Rng.pick] draw per slot (the baseline).
    [candidates] must be non-empty, as every overlay's selector hook
    guarantees. *)

val optimal_pick : Topology.Oracle.t -> pick
(** The physically closest candidate other than [node] (ties to the lower
    id), by the distance oracle: the infinitely-many-RTTs bound. *)

val probe_best : measure:(int -> int -> float) -> node:int -> int list -> int option
(** Measure the RTT from [node] to each candidate, in list order, and
    return the closest; on equal RTTs the earlier candidate wins.  [None]
    on an empty list. *)

val hybrid_pick :
  measure:(int -> int -> float) -> vector_of:(int -> float array) -> rtts:int -> pick
(** The paper's hybrid: rank the candidates other than [node] by
    [(landmark-vector distance to node, id)], then {!probe_best} over the
    first [rtts] of them.  Wrap [measure] to count probes. *)
