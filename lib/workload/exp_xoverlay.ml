module Oracle = Topology.Oracle
module Strategy = Core.Strategy
module Landmarks = Landmark.Landmarks
module Number = Landmark.Number
module Stats = Prelude.Stats
module Rng = Prelude.Rng
module Metrics = Engine.Metrics

let overlay_size = 1024
let landmark_count = 15
let rtt_budget = 10
let route_count = 2048

(* One table row.  Each overlay keeps the seeds it always had: ids for
   the selection rows, ids for the stored-map row (whose fallback picks
   use the next seed), and the route sample. *)
type overlay = {
  label : string;
  make : Rng.t -> Backend.t;
  pick_seed : int;
  map_seed : int;
  route_seed : int;
  map_caption : string;
}

let overlays =
  [
    {
      label = "Chord";
      make = Backend.chord;
      pick_seed = 31337;
      map_seed = 31339;
      route_seed = 555;
      map_caption = "Chord with the map stored on the ring itself:";
    };
    {
      label = "Pastry";
      make = Backend.pastry;
      pick_seed = 31338;
      map_seed = 31341;
      route_seed = 556;
      map_caption = "Pastry with maps stored under the prefixes:";
    };
    {
      label = "Koorde";
      make = Backend.koorde ?degree:None;
      pick_seed = 31343;
      map_seed = 31344;
      route_seed = 557;
      map_caption = "Koorde with the map stored on its ring:";
    };
  ]

(* Mean stretch over [route_count] seeded routes to random keys. *)
let route_stretch oracle members ~route_seed ~what (be : Backend.t) =
  let route_rng = Rng.create route_seed in
  let stretches = ref [] in
  for _ = 1 to route_count do
    let src = Rng.pick route_rng members in
    let key = Rng.int route_rng be.key_space in
    match be.route ~src ~key with
    | Some hops ->
      let shortest = Oracle.dist oracle src (be.owner key) in
      if shortest > 0.0 then
        stretches := (Core.Measure.path_latency oracle hops /. shortest) :: !stretches
    | None -> failwith (Printf.sprintf "%s routing failed under %s" be.name what)
  done;
  Stats.summarize (Array.of_list !stretches)

let populate o seed members =
  let be = o.make (Rng.create seed) in
  Array.iter be.add members;
  be

let pick_stretch oracle members o pick_name pick =
  let be = populate o o.pick_seed members in
  be.rebuild ~pick;
  route_stretch oracle members ~route_seed:o.route_seed ~what:pick_name be

(* The soft-state map actually stored on the overlay (appendix placement:
   landmark-number keys on the ring / under the prefixes): each slot does
   a real map lookup constrained to its arc or prefix, then probes the
   returned candidates by RTT. *)
let stored_map_stretch oracle members scheme vector_of o =
  let be = populate o o.map_seed members in
  let fallback_rng = Rng.create (o.map_seed + 1) in
  be.map_rebuild ~scheme ~vector_of ~max_results:rtt_budget
    ~pick:(fun ~node ~stored ~candidates ->
      match stored with
      | [] -> Some (Rng.pick fallback_rng candidates)
      | stored -> Strategy.probe_best ~measure:(Oracle.measure oracle) ~node stored);
  route_stretch oracle members ~route_seed:o.route_seed ~what:"stored-map hybrid" be

let run ?(scale = 1) ppf =
  let oracle = Ctx.oracle ~scale Ctx.Tsk_large Topology.Transit_stub.Manual in
  let size = max 128 (overlay_size / scale) in
  let rng = Rng.create 777 in
  let all = Array.init (Oracle.node_count oracle) (fun i -> i) in
  let members = Rng.sample rng size all in
  let lms = Landmarks.choose rng oracle landmark_count in
  let vectors = Hashtbl.create size in
  Array.iter (fun m -> Hashtbl.replace vectors m (Landmarks.vector lms m)) members;
  let vector_of node = Hashtbl.find vectors node in
  let table =
    Tableout.create
      ~title:
        (Printf.sprintf
           "Generality: proximity selection on Chord, Pastry and Koorde (%d nodes, tsk-large manual)"
           size)
      ~columns:[ "overlay"; "random"; "hybrid (lmk+RTT)"; "optimal" ]
  in
  (* The hybrid, idealised to its information content: the map of a
     region returns the entries closest to the querying node in landmark
     space; the node then probes the top few by RTT. *)
  let strategies () =
    [
      ("random", Strategy.random_pick (Rng.create 1));
      ( "hybrid",
        Strategy.hybrid_pick ~measure:(Oracle.measure oracle) ~vector_of ~rtts:rtt_budget );
      ("optimal", Strategy.optimal_pick oracle);
    ]
  in
  (* Headline gauges: mean stretch per overlay x pick, and per overlay
     for the stored-map rows, under experiment=xover. *)
  let gauge ?(labels = []) name o v =
    let labels =
      ("experiment", "xover") :: ("overlay", String.lowercase_ascii o.label) :: labels
    in
    Metrics.set (Metrics.gauge Metrics.global ~labels name) v
  in
  List.iter
    (fun o ->
      let cells =
        List.map
          (fun (pick_name, pick) ->
            let mean = (pick_stretch oracle members o pick_name pick).Stats.mean in
            gauge ~labels:[ ("pick", pick_name) ] "xover_stretch_mean" o mean;
            Tableout.cell_f mean)
          (strategies ())
      in
      Tableout.add_row table (o.label :: cells))
    overlays;
  Tableout.render ppf table;
  (* The stored-map variant exercises the actual on-overlay storage path. *)
  let scheme =
    Number.default_scheme
      ~max_latency:(Number.calibrate_max_latency oracle (Landmarks.nodes lms))
      ()
  in
  List.iter
    (fun o ->
      let mean = (stored_map_stretch oracle members scheme vector_of o).Stats.mean in
      gauge "xover_stored_map_stretch_mean" o mean;
      Format.fprintf ppf "  %-45s stretch %.3f (vs idealised hybrid above)@." o.map_caption mean)
    overlays
