(** One adapter over the ring-like overlays — Chord, Pastry and Koorde.

    The paper's §5 claim is that the soft-state mechanism serves any
    structured overlay with neighbor-selection freedom.  Every workload
    that runs those three overlays (the [xover], [churn], [degree],
    [cache] and [mcast] experiments and the conformance suite) drives
    them through this one record, so membership, table builds, keyed
    routing and the structural checks are written once per overlay,
    here. *)

type t = {
  name : string;  (** ["chord"], ["pastry"] or ["koorde"] *)
  add : int -> unit;  (** join a node under a fresh id drawn from the constructor's rng *)
  remove : int -> unit;
  rebuild : pick:Core.Strategy.pick -> unit;
      (** (Re)build every member's table; [pick] fills each slot. *)
  map_rebuild :
    scheme:Landmark.Number.scheme ->
    vector_of:(int -> float array) ->
    max_results:int ->
    pick:(node:int -> stored:int list -> candidates:int array -> int option) ->
    unit;
      (** Publish every member's landmark vector into the overlay's own
          soft-state map (the appendix placement: keyed by landmark
          number on the ring, under the prefixes for Pastry), then
          rebuild every table.  Each slot's [pick] also gets [stored]:
          up to [max_results] owners the slot-constrained map lookup
          returned, nearest in landmark space first, [node] excluded. *)
  node_ids : unit -> int array;
  mem : int -> bool;
  key_space : int;  (** route keys are drawn from [[0, key_space)] *)
  owner : int -> int;  (** member in charge of a key: where a route must end *)
  key_of : int -> int;  (** a member's own key, so [owner (key_of m) = m] *)
  route : src:int -> key:int -> int list option;  (** hop list, both endpoints included *)
  invariants : unit -> (unit, string) result;  (** the overlay's structural checker *)
  tables_complete : unit -> (unit, string) result;
      (** Every slot a clean {!rebuild} would fill is filled: Chord
          fingers for inhabited arcs, Pastry slots for inhabited
          prefixes, Koorde cover lists equal to the membership's. *)
}

val chord : Prelude.Rng.t -> t
(** Empty Chord ring; [add] draws ring keys from the given rng. *)

val pastry : Prelude.Rng.t -> t
(** Empty Pastry mesh; [add] draws Pastry ids from the given rng. *)

val koorde : ?degree:int -> Prelude.Rng.t -> t
(** Empty Koorde overlay of de Bruijn fanout [degree] (default 4); [add]
    draws ring keys from the given rng. *)
