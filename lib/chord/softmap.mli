(** The {!Ring_softmap} construction on a Chord ring. *)

include Ring_softmap.S with type overlay = Ring.t
