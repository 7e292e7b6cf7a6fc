(** One service-row adapter for the [cache] and [mcast] experiments.

    A row of either experiment runs a service over one overlay: eCAN,
    plain CAN on the same substrate, or Chord / Pastry / Koorde through
    {!Backend}.  This record is what the row needs of the overlay; the
    {!cache_backend} and {!mcast_backend} projections hand it to
    {!Engine.Cache} and {!Engine.Mcast}. *)

type t = {
  name : string;  (** label for metrics and tables *)
  member : int -> bool;  (** is the node currently an overlay member? *)
  home_of : int -> int;  (** key → the member owning it *)
  route_to : src:int -> dst:int -> int list option;
      (** overlay route from a member to a member, both endpoints
          included; [None] when [dst] is not a member or routing fails *)
  candidates : node:int -> exclude:int list -> int list;
      (** placement proposals near [node], best first, at most 12, none
          in [exclude] and never [node] itself *)
  publish_load : node:int -> load:float -> unit;
      (** feed a node's normalized load into the overlay's maps *)
  on_remove : int -> unit;  (** structure upkeep after a member leaves *)
  on_join : int -> unit;  (** structure upkeep after a node joins *)
}

val mix62 : int -> int
(** SplitMix64 finalizer (62-bit result): spreads consecutive key ids
    over a key space. *)

val reset_loads : Core.Builder.t -> unit
(** Zero the load fields of every member's map entries, so each row
    starts from the same map state. *)

val ecan : name:string -> Core.Builder.t -> t
(** Expressway routes over the builder's eCAN.  Homes are the CAN owners
    of each key's hashed point; candidates come from a root-region
    {!Softstate.Store.lookup} around the node's landmark vector that
    skips entries loaded past 0.99; loads are published into every
    region holding the node's entries. *)

val can : name:string -> Core.Builder.t -> t
(** {!ecan} with greedy CAN routes on the same substrate. *)

val ring : salt:int -> (Prelude.Rng.t -> Backend.t) -> seed:int -> Core.Builder.t -> t
(** A Chord, Pastry or Koorde overlay built over the builder's members
    from its own rng (seeded from [seed] and [salt]), with landmark +
    RTT hybrid selection (rtts = 5) that [on_remove] / [on_join] rerun.
    Homes hash keys onto the ring; candidates are the physically nearest
    current members; loads are not published. *)

val cache_backend : t -> Engine.Cache.backend
(** [near] is the first of {!t.candidates}. *)

val mcast_backend : t -> Engine.Mcast.backend
