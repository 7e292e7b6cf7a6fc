module Oracle = Topology.Oracle
module Can_overlay = Can.Overlay
module Landmarks = Landmark.Landmarks
module Search = Proximity.Search
module Rng = Prelude.Rng

let landmark_count = 15
let query_count = 100
let max_ers_budget = 4000
let max_hybrid_budget = 40

(* Shared per-variant computation: average best-so-far stretch for both
   algorithms, over the same query set, cached across the four figures. *)
type curves = { ers : float array; hybrid : float array }

let cache : (string, curves) Hashtbl.t = Hashtbl.create 4

let average_curves ~budget per_query_curves =
  (* Curves may be shorter than the budget (ERS can exhaust the graph);
     extend each with its final value. *)
  let acc = Array.make budget 0.0 in
  List.iter
    (fun stretch ->
      let len = Array.length stretch in
      for i = 0 to budget - 1 do
        acc.(i) <- acc.(i) +. stretch.(min i (len - 1))
      done)
    per_query_curves;
  Array.map (fun v -> v /. float_of_int (List.length per_query_curves)) acc

let compute ?(scale = 1) variant =
  let key = Printf.sprintf "%s/%d" (Ctx.variant_name variant) scale in
  match Hashtbl.find_opt cache key with
  | Some c -> c
  | None ->
    let oracle = Ctx.oracle ~scale variant Topology.Transit_stub.Gtitm_random in
    let n = Oracle.node_count oracle in
    let rng = Rng.create 777 in
    (* The paper's §4 setting: a 2-d CAN over every node of the topology. *)
    let can = Can_overlay.random ~dims:2 rng n in
    let lms = Landmarks.choose rng oracle landmark_count in
    let vectors = Array.init n (fun node -> Landmarks.vector lms node) in
    let all = Array.init n (fun i -> i) in
    let queries = Rng.sample rng (min query_count n) all in
    let ers_budget = min max_ers_budget (n - 1) in
    (* Probe counts per algorithm go to the global registry ([rtt_probes]
       labeled algo/variant) — the measurement cost the figures trade
       against. *)
    let metrics = Engine.Metrics.global in
    let labels = [ ("variant", Ctx.variant_name variant) ] in
    let ers_curves = ref [] and hybrid_curves = ref [] in
    Array.iter
      (fun query ->
        let _, optimal = Search.true_nearest oracle ~query ~candidates:all in
        let ers = Search.ers_curve ~metrics ~labels oracle can ~query ~budget:ers_budget in
        let hybrid =
          Search.hybrid_curve ~metrics ~labels oracle
            ~vector_of:(fun v -> vectors.(v))
            ~candidates:all ~query ~budget:max_hybrid_budget
        in
        ers_curves := Search.stretch_curve ers ~optimal :: !ers_curves;
        hybrid_curves := Search.stretch_curve hybrid ~optimal :: !hybrid_curves)
      queries;
    let c =
      {
        ers = average_curves ~budget:ers_budget !ers_curves;
        hybrid = average_curves ~budget:max_hybrid_budget !hybrid_curves;
      }
    in
    Hashtbl.replace cache key c;
    c

let data ?(scale = 1) variant =
  let c = compute ~scale variant in
  (c.ers, c.hybrid)

let hybrid_checkpoints = [ 1; 2; 3; 5; 8; 10; 15; 20; 30; 40 ]
let ers_checkpoints = [ 1; 2; 5; 10; 20; 50; 100; 200; 500; 1000; 2000; 4000 ]

let at curve k = curve.(min (k - 1) (Array.length curve - 1))

let comparison_figure ~title ~scale variant ppf =
  let c = compute ~scale variant in
  let table =
    Tableout.create ~title ~columns:[ "RTT measurements"; "ERS stretch"; "lmk+RTT stretch" ]
  in
  List.iter
    (fun k ->
      Tableout.add_row table
        [ Tableout.cell_i k; Tableout.cell_f (at c.ers k); Tableout.cell_f (at c.hybrid k) ])
    hybrid_checkpoints;
  Tableout.render ppf table

let ers_figure ~title ~scale variant ppf =
  let c = compute ~scale variant in
  let table = Tableout.create ~title ~columns:[ "RTT measurements"; "ERS stretch" ] in
  List.iter
    (fun k ->
      if k <= Array.length c.ers then
        Tableout.add_row table [ Tableout.cell_i k; Tableout.cell_f (at c.ers k) ])
    ers_checkpoints;
  Tableout.render ppf table

let fig3 ?(scale = 1) ppf =
  comparison_figure ~scale Ctx.Tsk_large ppf
    ~title:"Figure 3: nearest-neighbor stretch, ERS vs landmark+RTT (tsk-large)"

let fig4 ?(scale = 1) ppf =
  ers_figure ~scale Ctx.Tsk_large ppf
    ~title:"Figure 4: expanding-ring search alone, deep budgets (tsk-large)"

let fig5 ?(scale = 1) ppf =
  comparison_figure ~scale Ctx.Tsk_small ppf
    ~title:"Figure 5: nearest-neighbor stretch, ERS vs landmark+RTT (tsk-small)"

let fig6 ?(scale = 1) ppf =
  ers_figure ~scale Ctx.Tsk_small ppf
    ~title:"Figure 6: expanding-ring search alone, deep budgets (tsk-small)"
