(** Members placed at unique keys on an identifier ring of [2^bits]
    positions, with the per-member state left to the overlay.

    Chord's fingers, Koorde's de Bruijn covers and Pastry's routing
    tables all sit on this one structure: membership by id, fresh random
    keys, the key-sorted index and the clockwise arithmetic.  Member
    iteration is [Hashtbl] order over the ids, which seeded selection
    policies consume, so it depends only on the sequence of {!add} /
    {!add_at} / {!remove} calls. *)

type 'a t

val create : bits:int -> key:('a -> int) -> 'a t
(** Empty ring of [2^bits] keys; [key] reads a member's key from its
    state. *)

val bits : 'a t -> int

val space : 'a t -> int
(** [2^bits]. *)

val size : 'a t -> int
val mem : 'a t -> int -> bool
val find_opt : 'a t -> int -> 'a option

val iter : (int -> 'a -> unit) -> 'a t -> unit
(** Visit every [(id, state)]. *)

val node_ids : 'a t -> int array
(** Member ids, in {!iter} order. *)

val add : 'a t -> rng:Rng.t -> int -> (int -> 'a) -> unit
(** [add t ~rng id make] places [id] (not yet a member) at a key drawn
    uniformly from the free ones by rejection, with state [make key].
    Raises [Invalid_argument] before any draw when every key is
    taken. *)

val add_at : 'a t -> int -> key:int -> (int -> 'a) -> unit
(** {!add} at an explicit key.  Raises [Invalid_argument] if [key] is
    out of [[0, 2^bits)] or taken. *)

val remove : 'a t -> int -> unit
(** Raises [Invalid_argument] if the id is not a member. *)

val sorted : 'a t -> (int * int) array
(** Every [(key, id)], ascending by key; rebuilt lazily after a
    membership change.  Do not mutate. *)

val successor : 'a t -> int -> int
(** The first member clockwise from a position (key [>=] it, wrapping).
    Raises [Failure] on an empty ring. *)

val predecessor : 'a t -> int -> int
(** The last member strictly before a position (wrapping): the one whose
    span [(own key, successor's key]] holds it.  Raises [Failure] on an
    empty ring. *)

val arc_members : 'a t -> lo:int -> span:int -> int array
(** Members whose keys fall in [[lo, lo+span)] (mod [2^bits]), in
    clockwise order from [lo]. *)

val clockwise : 'a t -> int -> int -> int
(** [clockwise t from target]: distance from [from] to [target] going
    clockwise, in [[0, 2^bits)]. *)

val between_oc : 'a t -> int -> int -> int -> bool
(** [between_oc t a b x]: [x] lies in the arc [(a, b]]; the whole ring
    when [a = b]. *)
