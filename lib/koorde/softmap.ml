include Chord.Ring_softmap.Make (Debruijn)
