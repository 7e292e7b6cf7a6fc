module Rng = Prelude.Rng
module Stats = Prelude.Stats
module Oracle = Topology.Oracle
module Can_overlay = Can.Overlay
module Ecan_exp = Ecan.Expressway
module Zone = Geometry.Zone

type sample = {
  src : int;
  dst : int;
  hops : int;
  latency : float;
  shortest : float;
}

type report = {
  samples : sample list;
  stretch : Stats.summary;
  hops : Stats.summary;
}

let path_latency oracle hops =
  let rec go acc = function
    | a :: (b :: _ as rest) -> go (acc +. Oracle.dist oracle a b) rest
    | [ _ ] | [] -> acc
  in
  go 0.0 hops

let sample_of_route oracle ~src ~dst hops =
  {
    src;
    dst;
    hops = List.length hops - 1;
    latency = path_latency oracle hops;
    shortest = Oracle.dist oracle src dst;
  }

let dst_point builder dst =
  Zone.center (Can_overlay.node (Ecan_exp.can builder.Builder.ecan) dst).Can_overlay.zone

(* Route from [src] to a point owned by [dst] over the eCAN; [None] if
   routing fails (does not happen on consistent overlays). *)
let route_sample builder ~src ~dst =
  let oracle = builder.Builder.oracle in
  match Ecan_exp.route builder.Builder.ecan ~src (dst_point builder dst) with
  | Some hops -> Some (sample_of_route oracle ~src ~dst hops)
  | None -> None

let report_of_samples samples =
  let stretches =
    List.filter_map
      (fun s -> if s.shortest > 0.0 then Some (s.latency /. s.shortest) else None)
      samples
  in
  {
    samples;
    stretch = Stats.summarize (Array.of_list stretches);
    hops =
      Stats.summarize
        (Array.of_list (List.map (fun (s : sample) -> float_of_int s.hops) samples));
  }

let sampled_routes ?pairs builder route =
  let can = Ecan_exp.can builder.Builder.ecan in
  let ids = Can_overlay.node_ids can in
  let n = Array.length ids in
  if n < 2 then invalid_arg "Measure: need at least two members";
  let pairs = match pairs with Some p -> p | None -> 2 * n in
  let rng = Rng.copy builder.Builder.rng in
  let samples = ref [] in
  for _ = 1 to pairs do
    let src = Rng.pick rng ids in
    let rec draw_dst () =
      let d = Rng.pick rng ids in
      if d = src then draw_dst () else d
    in
    let dst = draw_dst () in
    match route ~src ~dst with
    | Some s -> samples := s :: !samples
    | None -> failwith "Measure: routing failed"
  done;
  report_of_samples !samples

let route_stretch ?pairs builder = sampled_routes ?pairs builder (fun ~src ~dst -> route_sample builder ~src ~dst)

let can_route_report ?pairs builder =
  let can = Ecan_exp.can builder.Builder.ecan in
  let oracle = builder.Builder.oracle in
  sampled_routes ?pairs builder (fun ~src ~dst ->
      match Can_overlay.route can ~src (dst_point builder dst) with
      | Some hops -> Some (sample_of_route oracle ~src ~dst hops)
      | None -> None)

let neighbor_quality builder =
  let ecan = builder.Builder.ecan in
  let can = Ecan_exp.can ecan in
  let oracle = builder.Builder.oracle in
  let ratios = ref [] in
  Array.iter
    (fun id ->
      List.iter
        (fun (row, digit, target) ->
          let region = Ecan_exp.region_prefix ecan id ~row ~digit in
          let candidates = Can_overlay.members_with_prefix can region in
          match Oracle.nearest oracle id candidates with
          | Some (_, best) when best > 0.0 ->
            ratios := Oracle.dist oracle id target /. best :: !ratios
          | Some _ | None -> ())
        (Ecan_exp.entries ecan id))
    (Can_overlay.node_ids can);
  Stats.summarize (Array.of_list !ratios)
