(* Allocation microbench: exact [Gc.minor_words] budgets for the
   simulation hot paths.

   Each op is warmed up once (fixture laziness, first-call memoization)
   and then run a fixed number of times with the minor-allocation
   counter read immediately around the measured calls only — fixture
   rebuilding between measured windows is excluded.  Minor-word counts
   are a pure function of the allocations the measured code performs, so
   for a seeded, single-domain workload they are exactly reproducible
   and [bench/compare.exe] holds them to exact integer equality (its
   allocation-budget section).  The store runs on an explicit 1-domain
   pool so the budget is independent of the TOPOAWARE_DOMAINS matrix
   leg, per the DESIGN.md §12 pool-size-transparency contract.

   The budgets are words per op, truncated: [alloc_minor_words_per_route]
   (one eCAN expressway route), [alloc_minor_words_per_sweep] (one TTL
   sweep purging a 64-entry burst) and [alloc_minor_words_per_sssp] (one
   single-source shortest-path run of the kind [Oracle.build] issues in
   a loop).  Counts are toolchain-sensitive: regenerate the baselines
   after a compiler upgrade (see EXPERIMENTS.md). *)

module Ts = Topology.Transit_stub
module Graph = Topology.Graph
module Dijkstra = Topology.Dijkstra
module Can_overlay = Can.Overlay
module Ecan_exp = Ecan.Expressway
module Store = Softstate.Store
module Number = Landmark.Number
module Point = Geometry.Point
module Rng = Prelude.Rng
module Metrics = Engine.Metrics

let substrate = 256 (* CAN members for the route / sweep fixtures *)
let route_samples = 64 (* distinct seeded (src, point) route queries *)
let route_runs = 256
let sweep_rounds = 16
let sweep_burst = 64 (* entries expiring per measured sweep *)
let sweep_ttl = 1_000.0
let sssp_runs = 64

let vector_of node = Array.init 5 (fun i -> float_of_int ((node * ((7 * i) + 3)) mod 400))

(* Words allocated per call, truncated.  [f] must be side-effect-stable
   across repetitions (same allocation profile every call). *)
let words_per_op ~runs f =
  f ();
  let before = Gc.minor_words () in
  for _ = 1 to runs do
    f ()
  done;
  int_of_float (Gc.minor_words () -. before) / runs

let route_op () =
  let rng = Rng.create 31 in
  let can = Can_overlay.random ~dims:2 rng substrate in
  let e = Ecan_exp.create ~span_bits:2 can in
  let sel = Rng.create 32 in
  Ecan_exp.build_tables e ~selector:(fun ~node:_ ~region:_ ~candidates ->
      Some (Rng.pick sel candidates));
  let members = Can_overlay.node_ids can in
  let qrng = Rng.create 33 in
  let queries =
    Array.init route_samples (fun _ -> (Rng.pick qrng members, Point.random qrng 2))
  in
  let cursor = ref 0 in
  words_per_op ~runs:route_runs (fun () ->
      let src, point = queries.(!cursor mod route_samples) in
      incr cursor;
      ignore (Ecan_exp.route e ~src point))

let sweep_op () =
  let rng = Rng.create 41 in
  let can = Can_overlay.random ~dims:2 rng substrate in
  let clock = ref 0.0 in
  let store =
    Store.create ~shards:4 ~default_ttl:sweep_ttl
      ~pool:(Engine.Dpool.get ~domains:1)
      ~clock:(fun () -> !clock)
      ~scheme:(Number.default_scheme ~max_latency:400.0 ())
      can
  in
  (* Warm-up burst: first sweep pays one-time map/heap growth. *)
  let publish_burst base =
    for p = 0 to sweep_burst - 1 do
      Store.publish store ~region:[||] ~node:(base + p) ~vector:(vector_of (base + p))
    done
  in
  publish_burst 10_000;
  clock := 2.0 *. sweep_ttl;
  ignore (Store.sweep_expired store);
  let total = ref 0.0 in
  for round = 1 to sweep_rounds do
    publish_burst (10_000 + (round * sweep_burst));
    clock := !clock +. (2.0 *. sweep_ttl);
    let before = Gc.minor_words () in
    ignore (Store.sweep_expired store);
    total := !total +. (Gc.minor_words () -. before)
  done;
  int_of_float !total / sweep_rounds

let sssp_op () =
  let topo = Ts.generate (Rng.create 7) (Ts.tsk_large ~latency:Ts.Manual ~scale:16 ()) in
  let g = topo.Ts.graph in
  let n = Graph.node_count g in
  let ws = Dijkstra.Workspace.create n in
  let out = Array.make n infinity in
  let src = ref 0 in
  words_per_op ~runs:sssp_runs (fun () ->
      Dijkstra.distances_into ws g (!src mod n) out;
      incr src)

let run ?(scale = 1) ppf =
  ignore scale;
  let route_words = route_op () in
  let sweep_words = sweep_op () in
  let sssp_words = sssp_op () in
  let metrics = Metrics.global in
  let c name v = Metrics.add (Metrics.counter metrics name) v in
  c "alloc_minor_words_per_route" route_words;
  c "alloc_minor_words_per_sweep" sweep_words;
  c "alloc_minor_words_per_sssp" sssp_words;
  Metrics.set
    (Metrics.gauge metrics "alloc_sweep_words_per_entry")
    (float_of_int sweep_words /. float_of_int sweep_burst);
  let table =
    Tableout.create
      ~title:
        (Printf.sprintf
           "Allocation budget: minor words per hot-path op (%d routes, %d sweeps x %d entries, %d SSSP)"
           route_runs sweep_rounds sweep_burst sssp_runs)
      ~columns:[ "op"; "minor words/op" ]
  in
  Tableout.add_row table [ "ecan route (1 message)"; Tableout.cell_i route_words ];
  Tableout.add_row table
    [ Printf.sprintf "ttl sweep (%d expired)" sweep_burst; Tableout.cell_i sweep_words ];
  Tableout.add_row table [ "dijkstra sssp (reused workspace)"; Tableout.cell_i sssp_words ];
  Tableout.render ppf table;
  Format.fprintf ppf
    "  exact budgets: gated by bench/compare.exe's allocation-budget section (integer equality).@."
