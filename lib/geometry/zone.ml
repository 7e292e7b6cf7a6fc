type t = { lo : float array; hi : float array }

let full d =
  if d < 1 then invalid_arg "Zone.full: dimensionality must be >= 1";
  { lo = Array.make d 0.0; hi = Array.make d 1.0 }

let dims z = Array.length z.lo

let volume z =
  let acc = ref 1.0 in
  for i = 0 to dims z - 1 do
    acc := !acc *. (z.hi.(i) -. z.lo.(i))
  done;
  !acc

let center z = Array.init (dims z) (fun i -> (z.lo.(i) +. z.hi.(i)) /. 2.0)

let contains z p =
  if Array.length p <> dims z then invalid_arg "Zone.contains: dimension mismatch";
  let ok = ref true in
  for i = 0 to dims z - 1 do
    if not (p.(i) >= z.lo.(i) && p.(i) < z.hi.(i)) then ok := false
  done;
  !ok

let split z dim =
  if dim < 0 || dim >= dims z then invalid_arg "Zone.split: dimension out of range";
  let mid = (z.lo.(dim) +. z.hi.(dim)) /. 2.0 in
  let lower = { lo = Array.copy z.lo; hi = Array.copy z.hi } in
  let upper = { lo = Array.copy z.lo; hi = Array.copy z.hi } in
  lower.hi.(dim) <- mid;
  upper.lo.(dim) <- mid;
  (lower, upper)

let split_dim_at_depth d depth = depth mod d

let subzone z p =
  if Array.length p <> dims z then invalid_arg "Zone.subzone: dimension mismatch";
  Array.init (dims z) (fun i -> z.lo.(i) +. (p.(i) *. (z.hi.(i) -. z.lo.(i))))

let shrink z f =
  if not (f > 0.0 && f <= 1.0) then invalid_arg "Zone.shrink: factor out of (0,1]";
  (* Scale each side by f^(1/d) so the volume ratio is exactly f. *)
  let per_dim = Float.pow f (1.0 /. float_of_int (dims z)) in
  {
    lo = Array.copy z.lo;
    hi = Array.init (dims z) (fun i -> z.lo.(i) +. ((z.hi.(i) -. z.lo.(i)) *. per_dim));
  }

(* Per-dimension relation between two (non-wrapping, dyadic) intervals on
   the unit circle. *)
type axis_relation = Overlap | Abut | Apart

let axis_relation a_lo a_hi b_lo b_hi =
  if a_lo < b_hi && b_lo < a_hi then Overlap
  else if
    a_hi = b_lo || b_hi = a_lo || (a_hi = 1.0 && b_lo = 0.0) || (b_hi = 1.0 && a_lo = 0.0)
  then Abut
  else Apart

let is_neighbor a b =
  if dims a <> dims b then invalid_arg "Zone.is_neighbor: dimension mismatch";
  let abuts = ref 0 and overlaps = ref 0 in
  for i = 0 to dims a - 1 do
    match axis_relation a.lo.(i) a.hi.(i) b.lo.(i) b.hi.(i) with
    | Overlap -> incr overlaps
    | Abut -> incr abuts
    | Apart -> ()
  done;
  !abuts = 1 && !overlaps = dims a - 1

let intersects a b =
  if dims a <> dims b then invalid_arg "Zone.intersects: dimension mismatch";
  let ok = ref true in
  for i = 0 to dims a - 1 do
    if not (a.lo.(i) < b.hi.(i) && b.lo.(i) < a.hi.(i)) then ok := false
  done;
  !ok

let min_torus_dist z p =
  if Array.length p <> dims z then invalid_arg "Zone.min_torus_dist: dimension mismatch";
  let acc = ref 0.0 in
  for i = 0 to dims z - 1 do
    let d =
      if p.(i) >= z.lo.(i) && p.(i) <= z.hi.(i) then 0.0
      else
        Float.min (Point.torus_axis_dist p.(i) z.lo.(i)) (Point.torus_axis_dist p.(i) z.hi.(i))
    in
    acc := !acc +. (d *. d)
  done;
  sqrt !acc

let equal a b = a.lo = b.lo && a.hi = b.hi
