(* Workload [build]: one [Core.Builder.build] at Table 2 defaults with
   8,192 members over the full tsk-large topology — CAN joins, landmark
   vectors, map publishes, and a Table 1 lookup plus RTT probes for every
   routing slot.  No routing service, no timers.

   The traced run cannot time inside [Builder.build], a single call, so
   it replays the build's steps from the layers' public calls, in order
   and with the builder's seed splits, and compares the resulting tables
   with an untimed [Builder.build]. *)

open Common
module Point = Geometry.Point
module Landmarks = Landmark.Landmarks
module Number = Landmark.Number
module Probe = Engine.Probe
module Strategy = Core.Strategy

let members p = scaled p 4096 ~floor:64

(* One built overlay's deterministic outputs and checks. *)
let inspect p b ~with_invariants =
  let routes = sample_routes b ~pairs:(2 * Array.length b.Builder.members) in
  let checks =
    (* The CAN checker runs in the traced run, on the replayed overlay
       whose tables must match these. *)
    (if with_invariants then invariants ~can:false p b @ [ measure_agrees b routes ] else [])
    @ [ route_check routes ]
  in
  (routes, checks)

type rep = {
  run_s : float;
  probes : int;
  digest : string;
  routes : routes;
  checks : (string * (unit, string) result) list;
}

let untraced p =
  let topos = phase p "setup" (fun () -> List.init setup_reps (fun _ -> topology p)) in
  let oracle = (List.hd topos).oracle in
  let setup_s = median_of (fun t -> t.generate_s +. t.oracle_s) topos in
  let n = members p in
  let reps =
    repeat p (fun i ->
        let config = build_config p ~members:n ~variant:(i mod variants) ~k:2 in
        Gc.compact ();
        Oracle.reset_measurements oracle;
        let b, run_s = phase p "build" (fun () -> Timing.time (fun () -> Builder.build oracle config)) in
        let probes = Oracle.measurements oracle in
        let digest = table_digest b in
        let routes, checks = inspect p b ~with_invariants:(i < variants) in
        ({ run_s; probes; digest; routes; checks }, run_s))
  in
  let groups = by_variant variants reps in
  let firsts = List.map List.hd groups in
  let op_p50, op_tail, tail_note = op_latency (List.map (List.map (fun r -> r.routes.lat_s)) groups) in
  let run_s = median_of (fun r -> r.run_s) reps in
  let per_member x = x /. float_of_int n in
  {
    Report.metrics =
      [
        ("setup_s", setup_s);
        ("run_s", run_s);
        ("ops_per_s", float_of_int n /. run_s);
        ("op_p50_us", op_p50);
        ("op_tail_us", op_tail);
        ("peak_rss_mb", Timing.peak_rss_mb ());
        ("stretch_mean", mean_of (fun r -> r.routes.stretch_mean) firsts);
        ("delivered_p50_ms", mean_of (fun r -> r.routes.delivered_p50_ms) firsts);
        ("probes_per_member", per_member (mean_of (fun r -> float_of_int r.probes) firsts));
        ("msgs_per_event", mean_of (fun r -> r.routes.hops_mean) firsts);
      ];
    attempted = List.fold_left (fun acc r -> acc + r.routes.attempted + List.length r.checks) 0 reps;
    failed = List.fold_left (fun acc r -> acc + r.routes.failed + Report.failures r.checks) 0 reps;
    checks =
      List.concat_map (fun r -> r.checks) reps
      @ [
          Report.check "every repetition of a variant builds the same tables"
            (replays_match (fun r -> (r.digest, r.probes, r.routes.stretch_mean)) groups)
            "digests differ";
        ];
    digest = Digest.to_hex (Digest.string (String.concat "" (List.map (fun r -> r.digest) firsts)));
    notes =
      [
        Printf.sprintf
          "build: %d members, %d repetitions over %d variants; ops are members built (ops_per_s) and sampled eCAN routes (op_*_us)"
          n (List.length reps) (List.length groups);
        tail_note;
        "run_s repetitions: " ^ String.concat " " (List.map (fun r -> Printf.sprintf "%.3f" r.run_s) reps);
      ];
  }

(* ------------------------------------------------------------------ *)
(* Traced replay                                                       *)
(* ------------------------------------------------------------------ *)

type replay = {
  b : Builder.t;
  started : float;
  run_s : float;
  joins : Timing.acc;
  vectors : Timing.acc;
  publishes : Timing.acc;
  tables : Timing.acc;
  selector : Timing.acc;
  inputs : (int * int array) list;  (** selector calls, in call order *)
  measurements : int;
  gc : (string * float) list;
}

(* Steps 1-3 of [Builder.build], from public calls with its seed splits. *)
let replay_build p oracle (config : Builder.config) =
  let joins = Timing.acc () and vectors = Timing.acc () and publishes = Timing.acc () in
  let tables = Timing.acc () and selector = Timing.acc () in
  let inputs = ref [] in
  Gc.compact ();
  Oracle.reset_measurements oracle;
  let gc0 = Gc.quick_stat () in
  let t0 = Timing.now () in
  let rng = Rng.create config.Builder.seed in
  let member_rng = Rng.split rng in
  let join_rng = Rng.split rng in
  let landmark_rng = Rng.split rng in
  let members =
    Rng.sample member_rng config.Builder.overlay_size
      (Array.init (Oracle.node_count oracle) (fun i -> i))
  in
  let dims = config.Builder.dims in
  let can, ecan =
    phase p "replay: CAN joins" (fun () ->
        let can = Can_overlay.create ~dims members.(0) in
        for i = 1 to Array.length members - 1 do
          Timing.timed joins (fun () -> ignore (Can_overlay.join can members.(i) (Point.random join_rng dims)))
        done;
        (can, Ecan_exp.create ~span_bits:config.Builder.span_bits can))
  in
  let b =
    phase p "replay: landmark vectors and map publish" (fun () ->
        let landmarks = Landmarks.choose landmark_rng oracle config.Builder.landmark_count in
        let max_latency = Number.calibrate_max_latency oracle (Landmarks.nodes landmarks) in
        let scheme =
          { (Number.default_scheme ~curve:config.Builder.curve ~max_latency ()) with
            Number.index_dims = min config.Builder.index_dims config.Builder.landmark_count }
        in
        let pool = Engine.Dpool.get ~domains:config.Builder.domains in
        let clock () = 0.0 in
        let store =
          Store.create ~pool ~shards:config.Builder.shards ~condense:config.Builder.condense
            ~default_ttl:config.Builder.ttl ~clock ~scheme can
        in
        let prober =
          Probe.create ~clock ~pool ~config:config.Builder.probe ~measure:(Oracle.measure oracle) ()
        in
        let table = Hashtbl.create (Array.length members) in
        Array.iter
          (fun node ->
            let vector = Timing.timed vectors (fun () -> Landmarks.vector_via landmarks prober node) in
            Hashtbl.replace table node vector;
            Timing.timed publishes (fun () ->
                Store.publish_all store ~span_bits:config.Builder.span_bits ~node ~vector))
          members;
        { Builder.config; oracle; ecan; store; landmarks; scheme; members; vectors = table; prober; rng })
  in
  phase p "replay: build_tables" (fun () ->
      let inner = Builder.selector b config.Builder.strategy in
      let wrapped ~node ~region ~candidates =
        inputs := (node, region) :: !inputs;
        Timing.timed selector (fun () -> inner ~node ~region ~candidates)
      in
      Timing.timed tables (fun () -> Ecan_exp.build_tables ecan ~selector:wrapped));
  let run_s = Timing.now () -. t0 in
  let gc = Timing.gc_delta gc0 (Gc.quick_stat ()) in
  { b; started = t0; run_s; joins; vectors; publishes; tables; selector; inputs = List.rev !inputs;
    measurements = Oracle.measurements oracle; gc }

(* Step 4: the recorded selector inputs through [Store.lookup] and
   [Probe.run_batch] alone, splitting the selector's time by layer. *)
let replay_selector (r : replay) =
  let lookups = Timing.acc () and batches = Timing.acc () in
  (match r.b.Builder.config.Builder.strategy with
  | Strategy.Hybrid { rtts; lookup_results; lookup_ttl } ->
    let config = r.b.Builder.config in
    let prober =
      Probe.create ~pool:(Engine.Dpool.get ~domains:config.Builder.domains) ~config:config.Builder.probe
        ~measure:(Oracle.measure r.b.Builder.oracle) ()
    in
    List.iter
      (fun (node, region) ->
        let vector = Builder.vector_of r.b node in
        let entries =
          Timing.timed lookups (fun () ->
              Store.lookup r.b.Builder.store ~region ~vector ~max_results:lookup_results ~ttl:lookup_ttl ())
        in
        let dsts =
          List.filter (fun (e : Store.Entry.t) -> e.Store.Entry.node <> node) entries
          |> List.filteri (fun i _ -> i < rtts)
          |> List.map (fun (e : Store.Entry.t) -> e.Store.Entry.node)
          |> Array.of_list
        in
        if Array.length dsts > 0 then ignore (Timing.timed batches (fun () -> Probe.run_batch prober ~src:node ~dsts)))
      r.inputs
  | _ -> ());
  (lookups, batches)

let traced p =
  let chrome = Option.get p.chrome in
  let topo = phase p "setup" (fun () -> topology p) in
  let oracle = topo.oracle in
  let config = build_config p ~members:(members p) ~variant:0 ~k:2 in
  Gc.compact ();
  let reference, untraced_s =
    phase p "untraced Builder.build" (fun () -> Timing.time (fun () -> Builder.build oracle config))
  in
  let reference = table_digest reference in
  let r = replay_build p oracle config in
  let lookups, batches = phase p "replay: selector inputs" (fun () -> replay_selector r) in
  let route_acc = Timing.acc () in
  let routes, checks =
    phase p "checks" (fun () ->
        let routes = sample_routes ~acc:route_acc r.b ~pairs:(2 * Array.length r.b.Builder.members) in
        ( routes,
          invariants p r.b
          @ [ route_check routes ] ))
  in
  let (), rehost_s = Timing.time (fun () -> Store.rehost r.b.Builder.store) in
  let digest = table_digest r.b in
  List.iteri
    (fun i (name, a) -> Chrome.aggregate chrome ~phase_start:r.started ~tid:(3 + i) name a)
    [
      ("can.join", r.joins);
      ("landmark.vector_via", r.vectors);
      ("store.publish_all", r.publishes);
      ("ecan.selector", r.selector);
      ("store.lookup (replayed)", lookups);
      ("probe.run_batch (replayed)", batches);
      ("ecan.route", route_acc);
    ];
  let table_walk = r.tables.Timing.total -. r.selector.Timing.total in
  let self_times =
    [
      ("can.join_s", r.joins.Timing.total);
      ("landmark.vector_s", r.vectors.Timing.total);
      ("store.publish_all_s", r.publishes.Timing.total);
      ("ecan.table_walk_s", table_walk);
      ("ecan.selector_s", r.selector.Timing.total);
    ]
  in
  let matches = digest = reference in
  {
    Report.metrics =
      [
        ("topology.generate_s", topo.generate_s);
        ("topology.oracle_s", topo.oracle_s);
        ("can.join_us_p50", Timing.p50_us r.joins);
        ("can.join_us_tail", Timing.tail_us r.joins);
        ("store.lookup_calls", float_of_int lookups.Timing.calls);
        ("store.lookup_s", lookups.Timing.total);
        ("store.lookup_us_p50", Timing.p50_us lookups);
        ("store.lookup_us_tail", Timing.tail_us lookups);
        ("store.rehost_ms", 1e3 *. rehost_s);
        ("ecan.build_tables_s", r.tables.Timing.total);
        ("ecan.selector_calls", float_of_int r.selector.Timing.calls);
        ("ecan.route_calls", float_of_int route_acc.Timing.calls);
        ("ecan.route_s", route_acc.Timing.total);
        ("ecan.route_us_p50", Timing.p50_us route_acc);
        ("ecan.route_hops_mean", routes.hops_mean);
        ("probe.batch_calls", float_of_int batches.Timing.calls);
        ("probe.batch_s", batches.Timing.total);
        ("probe.measurements", float_of_int r.measurements);
        ("trace.run_s", r.run_s);
        ("trace.untraced_run_s", untraced_s);
        ("trace.overhead_frac", r.run_s /. untraced_s);
      ]
      @ self_times @ r.gc
      @ Report.accounting ~run_s:r.run_s self_times;
    attempted = routes.attempted + List.length checks;
    failed = routes.failed + Report.failures checks;
    checks;
    digest;
    notes =
      [
        (if matches then "build replay: tables match Builder.build"
         else
           Printf.sprintf
             "build replay: MISMATCH — replayed tables %s differ from Builder.build %s; the breakdown no longer describes the builder"
             digest reference);
      ];
  }
