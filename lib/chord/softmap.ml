include Ring_softmap.Make (Ring)
