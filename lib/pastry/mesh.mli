(** Pastry overlay with proximity-neighbor selection.

    Node ids are strings of [num_digits] digits, each of [digit_bits]
    bits.  A node's routing table has one row per digit: row [r] holds,
    for every digit value [c] other than the node's own, a member sharing
    the first [r] digits and having digit [c] at position [r] — any such
    member qualifies, which is the selection freedom the soft-state maps
    exploit (one map per id prefix, the paper's "region" for Pastry).  A
    small leaf set of numerically adjacent ids completes routing. *)

type t

type selector = node:int -> prefix:int array -> candidates:int array -> int option
(** [selector ~node ~prefix ~candidates] picks the entry for the region
    identified by [prefix] (digit string).  [candidates] is never
    empty. *)

val create :
  ?metrics:Engine.Metrics.t ->
  ?labels:Engine.Metrics.labels ->
  ?trace:Engine.Trace.t ->
  ?digit_bits:int ->
  ?num_digits:int ->
  unit ->
  t
(** Defaults: 2-bit digits (base 4), 15 digits (30-bit ids).  Every
    member keeps 4 ring neighbours on each side as its leaf set (8
    leaves).  [metrics], [labels] and [trace] feed
    {!Engine.Route_obs} under [overlay=pastry]. *)

val digit_bits : t -> int
val num_digits : t -> int
val size : t -> int
val mem : t -> int -> bool
val node_ids : t -> int array

val add_node : t -> rng:Prelude.Rng.t -> int -> unit
(** Add a member under a fresh random Pastry id.  Raises
    [Invalid_argument] if the node is already a member or every id is
    taken. *)

val remove_node : t -> int -> unit
(** Remove a member; dangling table entries are cleared and leaf sets
    rebuilt. *)

val pastry_id : t -> int -> int
val digit : t -> int -> int -> int
(** [digit t pid r] is digit [r] (most significant first) of a Pastry
    id. *)

val shared_prefix_len : t -> int -> int -> int
(** Length (in digits) of the common prefix of two Pastry ids. *)

val members_with_prefix : t -> int array -> int array
(** Members whose id starts with the given digit string.  Raises
    [Invalid_argument] on a prefix longer than [num_digits] or a digit
    outside [[0, 2^digit_bits)]. *)

val owner_of : t -> int -> int
(** Member whose Pastry id is numerically closest (circularly) to the
    key; ties go to the lower id.  Raises [Failure] on an empty mesh. *)

val build_tables : t -> selector:selector -> unit
(** (Re)build all routing tables and leaf sets. *)

val table_entries : t -> int -> (int * int * int) list
(** Filled routing entries of a node as [(row, digit, target)]. *)

val leaves : t -> int -> int array
(** Current leaf set of a node. *)

val route : t -> src:int -> key:int -> int list option
(** Prefix routing to [owner_of t key]; hop list includes both
    endpoints. *)

val check_invariants : t -> (unit, string) result
