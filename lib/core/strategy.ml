type t =
  | Random_pick
  | Hybrid of { rtts : int; lookup_results : int; lookup_ttl : int }
  | Load_aware of { rtts : int; lookup_results : int; lookup_ttl : int; load_weight : float }
  | Optimal

let hybrid ?lookup_results ?(lookup_ttl = 2) ~rtts () =
  if rtts < 1 then invalid_arg "Strategy.hybrid: rtts must be >= 1";
  let lookup_results = match lookup_results with Some r -> r | None -> max 16 rtts in
  Hybrid { rtts; lookup_results; lookup_ttl }

let load_aware ?lookup_results ?(lookup_ttl = 2) ?(load_weight = 1.0) ~rtts () =
  if rtts < 1 then invalid_arg "Strategy.load_aware: rtts must be >= 1";
  if load_weight < 0.0 then invalid_arg "Strategy.load_aware: negative load weight";
  let lookup_results = match lookup_results with Some r -> r | None -> max 16 rtts in
  Load_aware { rtts; lookup_results; lookup_ttl; load_weight }

let to_string = function
  | Random_pick -> "random"
  | Hybrid { rtts; _ } -> Printf.sprintf "hybrid(rtts=%d)" rtts
  | Load_aware { rtts; load_weight; _ } ->
    Printf.sprintf "load-aware(rtts=%d,w=%.2f)" rtts load_weight
  | Optimal -> "optimal"

type pick = node:int -> candidates:int array -> int option

let random_pick rng ~node:_ ~candidates = Some (Prelude.Rng.pick rng candidates)

let optimal_pick oracle ~node ~candidates =
  Option.map fst (Topology.Oracle.nearest oracle node candidates)

let probe_best ~measure ~node candidates =
  let rec go best = function
    | [] -> Option.map snd best
    | c :: rest ->
      let d = measure node c in
      go (match best with Some (bd, _) when bd <= d -> best | _ -> Some (d, c)) rest
  in
  go None candidates

let hybrid_pick ~measure ~vector_of ~rtts ~node ~candidates =
  let qvec = vector_of node in
  candidates
  |> Array.to_list
  |> List.filter (fun c -> c <> node)
  |> List.map (fun c -> (Landmark.Landmarks.vector_dist qvec (vector_of c), c))
  |> List.sort compare
  |> List.filteri (fun i _ -> i < rtts)
  |> List.map snd
  |> probe_best ~measure ~node
