(** The {!Chord.Ring_softmap} construction on the Koorde ring: the de
    Bruijn overlay keeps a Chord identifier ring underneath, so the
    appendix placement carries over verbatim.  The [in_arc] filter of
    {!lookup} restricts results to owners inside a de Bruijn image arc,
    which is how proximity selection shops among a node's ~k cover
    candidates. *)

include Chord.Ring_softmap.S with type overlay = Debruijn.t
