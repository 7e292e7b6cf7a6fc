(** Soft-state coordinate maps on a Pastry mesh (paper appendix: "in the
    case of Pastry, we can use a prefix of the nodeIds to partition the
    logical space into grids").

    For each id prefix (the Pastry notion of a region) there is a map of
    the region's members.  An entry is stored under the id obtained by
    appending the node's landmark-number digits to the region prefix, so
    entries of physically-close nodes live under numerically-close ids and
    a single route reaches the right host. *)

type entry = {
  node : int;
  vector : float array;
  number : int;
  store_id : int;  (** full Pastry id the entry is keyed under *)
}

type t

val create : scheme:Landmark.Number.scheme -> Mesh.t -> t

val store_id_of : t -> prefix:int array -> float array -> int
(** The id an entry with this vector is stored under within a region:
    the region prefix digits followed by the landmark number's digits
    (truncated/padded to the id length). *)

val publish : t -> prefix:int array -> node:int -> vector:float array -> unit
(** Insert or refresh the entry for [node] in the region [prefix]'s map.
    Raises [Invalid_argument] on an empty mesh or overlong prefix. *)

val publish_all : t -> node:int -> vector:float array -> unit
(** Publish into every region enclosing the node (all prefixes of its own
    id, root included). *)

val unpublish : t -> int -> unit
(** Remove the node's entries from every region. *)

val rehome : t -> unit
(** Recompute hosting after mesh membership changed. *)

val entries_at : t -> int -> entry list
(** Entries hosted by a mesh member (across all regions). *)

val lookup :
  t ->
  prefix:int array ->
  vector:float array ->
  ?max_results:int ->
  ?ttl:int ->
  unit ->
  entry list
(** Find candidates in region [prefix] near [vector]: go to the host of
    the query's store id, then widen across the host's leaf-set
    neighborhood up to [ttl] (default 8) numerically-adjacent hosts.
    Sorted by landmark-vector distance, truncated to [max_results]
    (default 16). *)
