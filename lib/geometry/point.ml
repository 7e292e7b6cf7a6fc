type t = float array

let create coords =
  Array.iter
    (fun c ->
      if not (c >= 0.0 && c < 1.0) then invalid_arg "Point.create: coordinate out of [0,1)")
    coords;
  Array.copy coords

let dims = Array.length

let random rng d = Array.init d (fun _ -> Prelude.Rng.float rng 1.0)

let torus_axis_dist a b =
  let d = Float.abs (a -. b) in
  Float.min d (1.0 -. d)

let torus_dist a b =
  if Array.length a <> Array.length b then invalid_arg "Point.torus_dist: dimension mismatch";
  let acc = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    let d = torus_axis_dist a.(i) b.(i) in
    acc := !acc +. (d *. d)
  done;
  sqrt !acc

let euclidean_dist a b =
  if Array.length a <> Array.length b then invalid_arg "Point.euclidean_dist: dimension mismatch";
  let acc = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    let d = a.(i) -. b.(i) in
    acc := !acc +. (d *. d)
  done;
  sqrt !acc
