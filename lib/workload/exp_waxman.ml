module Oracle = Topology.Oracle
module Waxman = Topology.Waxman
module Can_overlay = Can.Overlay
module Landmarks = Landmark.Landmarks
module Search = Proximity.Search
module Builder = Core.Builder
module Strategy = Core.Strategy
module Measure = Core.Measure
module Rng = Prelude.Rng

let landmark_count = 15
let query_count = 60
let budgets = [ 1; 5; 10; 20; 40 ]

let oracle_cache : (int, Oracle.t) Hashtbl.t = Hashtbl.create 2

let waxman_oracle ~scale =
  match Hashtbl.find_opt oracle_cache scale with
  | Some o -> o
  | None ->
    let params = Waxman.default ~nodes:(max 200 (2000 / scale)) () in
    let o = Oracle.of_graph (Waxman.generate (Rng.create 515) params) in
    Hashtbl.replace oracle_cache scale o;
    o

let nn_table oracle ppf =
  let rng = Rng.create 616 in
  let n = Oracle.node_count oracle in
  let can = Can_overlay.random ~dims:2 rng n in
  let lms = Landmarks.choose rng oracle landmark_count in
  let vectors = Array.init n (fun node -> Landmarks.vector lms node) in
  let all = Array.init n (fun i -> i) in
  let queries = Rng.sample rng (min query_count n) all in
  let max_budget = List.fold_left max 1 budgets in
  let ers_avg = Array.make max_budget 0.0 and hyb_avg = Array.make max_budget 0.0 in
  Array.iter
    (fun query ->
      let _, optimal = Search.true_nearest oracle ~query ~candidates:all in
      let accumulate acc (curve : Search.curve) =
        let stretch = Search.stretch_curve curve ~optimal in
        let len = Array.length stretch in
        for i = 0 to max_budget - 1 do
          acc.(i) <- acc.(i) +. stretch.(min i (len - 1))
        done
      in
      accumulate ers_avg (Search.ers_curve oracle can ~query ~budget:max_budget);
      accumulate hyb_avg
        (Search.hybrid_curve oracle ~vector_of:(fun v -> vectors.(v)) ~candidates:all ~query
           ~budget:max_budget))
    queries;
  let q = float_of_int (Array.length queries) in
  let table =
    Tableout.create
      ~title:(Printf.sprintf "Waxman flat topology (%d nodes): NN-search stretch" n)
      ~columns:[ "RTT measurements"; "ERS stretch"; "lmk+RTT stretch" ]
  in
  List.iter
    (fun b ->
      Tableout.add_row table
        [
          Tableout.cell_i b;
          Tableout.cell_f (ers_avg.(b - 1) /. q);
          Tableout.cell_f (hyb_avg.(b - 1) /. q);
        ])
    budgets;
  Tableout.render ppf table

let routing_table oracle ~scale ppf =
  let size = max 128 (1024 / scale) in
  let b =
    Builder.build oracle
      {
        Builder.default_config with
        Builder.overlay_size = size;
        landmark_count;
        strategy = Strategy.Random_pick;
        seed = 42;
      }
  in
  let mean () = (Measure.route_stretch ~pairs:1024 b).Measure.stretch.Prelude.Stats.mean in
  let random = mean () in
  Builder.rebuild_tables b (Strategy.hybrid ~rtts:10 ());
  let hybrid = mean () in
  Builder.rebuild_tables b Strategy.Optimal;
  let optimal = mean () in
  let table =
    Tableout.create
      ~title:(Printf.sprintf "Waxman flat topology: eCAN routing stretch (%d nodes)" size)
      ~columns:[ "random"; "hybrid (lmk+RTT)"; "optimal" ]
  in
  Tableout.add_row table
    [ Tableout.cell_f random; Tableout.cell_f hybrid; Tableout.cell_f optimal ];
  Tableout.render ppf table

let run ?(scale = 1) ppf =
  let oracle = waxman_oracle ~scale in
  nn_table oracle ppf;
  routing_table oracle ~scale ppf
