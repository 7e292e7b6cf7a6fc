(* Shared backend-conformance suite: one property harness over all five
   overlay backends (CAN, eCAN, Chord, Pastry, Koorde).  Each backend is
   wrapped in the same record — keyed routing, a membership-model owner
   oracle, join/leave, stabilization, invariants — so the properties the
   per-backend suites used to copy (routes terminate within the hop
   bound, routes end at the oracle's owner, churn preserves invariants,
   same-seed and domains-1-vs-4 metrics JSON are byte-identical per
   DESIGN §12) are written exactly once. *)

module Rng = Prelude.Rng
module Point = Geometry.Point
module Metrics = Engine.Metrics
module Dpool = Engine.Dpool
module Json = Prelude.Json

type backend = {
  name : string;
  members : unit -> int array;
  route : src:int -> key:int -> int list option;
  owner : int -> int;  (* membership-model oracle: expected route terminal *)
  key_space : int;  (* route keys are drawn from [0, key_space) *)
  mean_hop_bound : int -> float;  (* allowed mean hops at a given size *)
  join : int -> unit;
  leave : int -> unit;
  stabilize : unit -> unit;
  invariants : unit -> (unit, string) result;
}

let log2f n = log (float_of_int (max 2 n)) /. log 2.

(* ---- the five wrappers ---- *)

(* Chord, Pastry and Koorde come from the shared ring-like adapter, with
   random picks drawn from a second seeded stream. *)
let of_ring ~seed ~n ~mean_hop_bound (b : Workload.Backend.t) =
  for id = 0 to n - 1 do
    b.add id
  done;
  let pick = Core.Strategy.random_pick (Rng.create (seed + 1)) in
  b.rebuild ~pick;
  {
    name = b.name;
    members = b.node_ids;
    route = b.route;
    owner = b.owner;
    key_space = b.key_space;
    mean_hop_bound;
    join = b.add;
    leave = b.remove;
    stabilize = (fun () -> b.rebuild ~pick);
    invariants = b.invariants;
  }

let ring_hop_bound n = (2. *. log2f n) +. 6.

let make_chord ~seed ~n =
  of_ring ~seed ~n ~mean_hop_bound:ring_hop_bound (Workload.Backend.chord (Rng.create seed))

let make_pastry ~seed ~n =
  of_ring ~seed ~n ~mean_hop_bound:ring_hop_bound (Workload.Backend.pastry (Rng.create seed))

let make_koorde ~seed ~n =
  let degree = [| 2; 4; 8; 16 |].(seed mod 4) in
  (* log_k N digit hops plus successor corrections, which random
     preferred entries make more frequent than the exact policy's O(1) *)
  of_ring ~seed ~n
    ~mean_hop_bound:(fun n -> (2. *. log2f n) +. 8.)
    (Workload.Backend.koorde ~degree (Rng.create seed))

(* CAN and eCAN route on points; keys map onto the unit square through a
   fixed 2 x 10-bit grid so the keyed interface is shared. *)
let can_key_bits = 20

let point_of_key key =
  let side = 1 lsl (can_key_bits / 2) in
  let cell v = (float_of_int v +. 0.5) /. float_of_int side in
  [| cell (key lsr (can_key_bits / 2)); cell (key land (side - 1)) |]

(* CAN and eCAN share the substrate; eCAN adds expressway tables with
   random picks from a second seeded stream and routes over them. *)
let make_can_like ~express ~seed ~n =
  let module Can_overlay = Can.Overlay in
  let module Ecan_x = Ecan.Expressway in
  let rng = Rng.create seed in
  let t = Can_overlay.random ~dims:2 rng n in
  let route, stabilize =
    if not express then ((fun ~src p -> Can_overlay.route t ~src p), fun () -> ())
    else begin
      let e = Ecan_x.create ~span_bits:2 t in
      let pick = Core.Strategy.random_pick (Rng.create (seed + 1)) in
      let stabilize () =
        Ecan_x.build_tables e ~selector:(fun ~node ~region:_ ~candidates -> pick ~node ~candidates)
      in
      stabilize ();
      ((fun ~src p -> Ecan_x.route e ~src p), stabilize)
    end
  in
  {
    name = (if express then "ecan" else "can");
    members = (fun () -> Can_overlay.node_ids t);
    route = (fun ~src ~key -> route ~src (point_of_key key));
    owner = (fun key -> Can_overlay.owner_of t (point_of_key key));
    key_space = 1 lsl can_key_bits;
    mean_hop_bound = (fun n -> (4. *. sqrt (float_of_int n)) +. 8.);
    join = (fun id -> ignore (Can_overlay.join t id (Point.random rng 2)));
    leave = (fun id -> ignore (Can_overlay.leave t id));
    stabilize;
    invariants = (fun () -> Can_overlay.check_invariants t);
  }

let backends =
  [
    ("can", make_can_like ~express:false);
    ("ecan", make_can_like ~express:true);
    ("chord", make_chord);
    ("pastry", make_pastry);
    ("koorde", make_koorde);
  ]

(* ---- properties ---- *)

let qcheck_terminates_within_bound (name, make) =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s: routes terminate within the hop bound" name)
    ~count:15
    QCheck.(pair (int_range 0 1000) (int_range 1 80))
    (fun (seed, n) ->
      let b = make ~seed ~n in
      let rng = Rng.create (seed + 2) in
      let ids = b.members () in
      let total = ref 0 in
      let routes = 24 in
      for _ = 1 to routes do
        let key = Rng.int rng b.key_space in
        match b.route ~src:(Rng.pick rng ids) ~key with
        | Some hops -> total := !total + List.length hops - 1
        | None -> QCheck.Test.fail_report (b.name ^ ": route did not terminate")
      done;
      float_of_int !total /. float_of_int routes <= b.mean_hop_bound n)

let qcheck_lookup_matches_oracle (name, make) =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s: lookups end at the membership model's owner" name)
    ~count:15
    QCheck.(pair (int_range 0 1000) (int_range 1 80))
    (fun (seed, n) ->
      let b = make ~seed ~n in
      let rng = Rng.create (seed + 2) in
      let ids = b.members () in
      let ok = ref true in
      for _ = 1 to 24 do
        let key = Rng.int rng b.key_space in
        match b.route ~src:(Rng.pick rng ids) ~key with
        | Some hops -> if List.nth hops (List.length hops - 1) <> b.owner key then ok := false
        | None -> ok := false
      done;
      !ok)

let qcheck_churn_preserves_invariants (name, make) =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s: join/leave churn preserves invariants" name)
    ~count:10
    QCheck.(pair (int_range 0 500) (int_range 12 48))
    (fun (seed, n) ->
      let b = make ~seed ~n in
      let rng = Rng.create (seed + 3) in
      let next_id = ref 10_000 in
      for _ = 1 to 16 do
        (if Array.length (b.members ()) > 8 && Rng.int rng 2 = 0 then
           b.leave (Rng.pick rng (b.members ()))
         else begin
           b.join !next_id;
           incr next_id
         end);
        b.stabilize ()
      done;
      (match b.invariants () with
      | Ok () -> ()
      | Error e -> QCheck.Test.fail_report (b.name ^ ": " ^ e));
      (* and the survivors still resolve lookups correctly *)
      let ids = b.members () in
      let ok = ref true in
      for _ = 1 to 12 do
        let key = Rng.int rng b.key_space in
        match b.route ~src:(Rng.pick rng ids) ~key with
        | Some hops -> if List.nth hops (List.length hops - 1) <> b.owner key then ok := false
        | None -> ok := false
      done;
      !ok)

(* ---- route accounting: every overlay records its routes through the
   shared recorder ---- *)

module Trace = Engine.Trace

(* Each overlay built with [?metrics] and [?trace] on, tables filled by
   seeded random picks; returns its members, key space and keyed route. *)
let instrumented =
  let pick seed = Core.Strategy.random_pick (Rng.create (seed + 1)) in
  let ring_like ~n ~add ~build ~members ~key_bits ~route =
    for id = 0 to n - 1 do
      add id
    done;
    build ();
    (members, 1 lsl key_bits, route)
  in
  let can_like ~express ~metrics ~trace ~seed ~n =
    let module Can_overlay = Can.Overlay in
    let rng = Rng.create seed in
    let can =
      if express then Can_overlay.random ~dims:2 rng n
      else Can_overlay.random ~metrics ~trace ~dims:2 rng n
    in
    let route =
      if not express then Can_overlay.route can
      else begin
        let e = Ecan.Expressway.create ~metrics ~trace ~span_bits:2 can in
        let pick = pick seed in
        Ecan.Expressway.build_tables e ~selector:(fun ~node ~region:_ ~candidates ->
            pick ~node ~candidates);
        Ecan.Expressway.route e
      end
    in
    ( (fun () -> Can_overlay.node_ids can),
      1 lsl can_key_bits,
      fun ~src ~key -> route ~src (point_of_key key) )
  in
  [
    ("can", can_like ~express:false);
    ("ecan", can_like ~express:true);
    ( "chord",
      fun ~metrics ~trace ~seed ~n ->
        let module R = Chord.Ring in
        let t = R.create ~metrics ~trace () and rng = Rng.create seed and pick = pick seed in
        ring_like ~n
          ~add:(R.add_node t ~rng)
          ~build:(fun () ->
            R.build_fingers t ~selector:(fun ~node ~arc:_ ~candidates -> pick ~node ~candidates))
          ~members:(fun () -> R.node_ids t)
          ~key_bits:(R.key_bits t) ~route:(R.route t) );
    ( "pastry",
      fun ~metrics ~trace ~seed ~n ->
        let module M = Pastry.Mesh in
        let t = M.create ~metrics ~trace () and rng = Rng.create seed and pick = pick seed in
        ring_like ~n
          ~add:(M.add_node t ~rng)
          ~build:(fun () ->
            M.build_tables t ~selector:(fun ~node ~prefix:_ ~candidates -> pick ~node ~candidates))
          ~members:(fun () -> M.node_ids t)
          ~key_bits:(M.digit_bits t * M.num_digits t)
          ~route:(M.route t) );
    ( "koorde",
      fun ~metrics ~trace ~seed ~n ->
        let module K = Koorde.Debruijn in
        let t = K.create ~metrics ~trace ~degree:4 () and rng = Rng.create seed
        and pick = pick seed in
        ring_like ~n
          ~add:(K.add_node t ~rng)
          ~build:(fun () ->
            K.build_fingers t ~selector:(fun ~node ~arc:_ ~candidates -> pick ~node ~candidates))
          ~members:(fun () -> K.node_ids t)
          ~key_bits:(K.key_bits t) ~route:(K.route t) );
  ]

let qcheck_route_accounting (name, make) =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s: route instruments account every lookup" name)
    ~count:10
    QCheck.(triple (int_range 0 1000) (int_range 1 64) (int_range 1 40))
    (fun (seed, n, routes) ->
      let metrics = Metrics.create () in
      let trace = Trace.create () in
      let members, key_space, route = make ~metrics ~trace ~seed ~n in
      let rng = Rng.create (seed + 5) in
      let results =
        List.init routes (fun _ ->
            let key = Rng.int rng key_space in
            route ~src:(Rng.pick rng (members ())) ~key)
      in
      let hops = List.filter_map (Option.map (fun h -> List.length h - 1)) results in
      (* read the registry before the lookups below could intern anything *)
      let snapshot = Metrics.snapshot metrics in
      let present =
        List.for_all
          (fun c -> List.exists (fun (e : Metrics.snapshot_entry) -> e.name = c) snapshot)
          [ "route_requests"; "route_failures"; "route_hops" ]
      in
      let labeled =
        List.for_all
          (fun (e : Metrics.snapshot_entry) -> List.mem ("overlay", name) e.labels)
          snapshot
      in
      let labels = [ ("overlay", name) ] in
      let counter c = Metrics.count (Metrics.counter metrics ~labels c) in
      let histogram = Metrics.histogram metrics ~labels "route_hops" in
      let hop_spans =
        List.length (List.filter (fun sp -> sp.Trace.kind = Trace.Route_hop) (Trace.spans trace))
      in
      present
      && labeled
      && counter "route_requests" = routes
      && counter "route_failures" = routes - List.length hops
      && Metrics.observations histogram = List.length hops
      && Array.fold_left ( +. ) 0. (Metrics.samples histogram)
         = float_of_int (List.fold_left ( + ) 0 hops)
      && hop_spans = List.fold_left ( + ) 0 hops)

(* ---- determinism: same seed and domains 1 vs 4 give byte-identical
   metrics JSON (DESIGN §12) ---- *)

let with_default_pool ~domains f =
  Dpool.set_default (Some (Dpool.get ~domains));
  Fun.protect ~finally:(fun () -> Dpool.set_default None) f

let workload_json make ~seed ~domains =
  with_default_pool ~domains (fun () ->
      let m = Metrics.create () in
      let b = make ~seed ~n:32 in
      let labels = [ ("overlay", b.name) ] in
      let routes = Metrics.counter m ~labels "conf_routes" in
      let failures = Metrics.counter m ~labels "conf_failures" in
      let hops = Metrics.histogram m ~labels "conf_hops" in
      let rng = Rng.create (seed + 4) in
      let next_id = ref 20_000 in
      for step = 1 to 24 do
        (if step mod 3 = 0 then begin
           if Array.length (b.members ()) > 8 then b.leave (Rng.pick rng (b.members ()));
           b.join !next_id;
           incr next_id;
           b.stabilize ()
         end);
        let key = Rng.int rng b.key_space in
        match b.route ~src:(Rng.pick rng (b.members ())) ~key with
        | Some h ->
          Metrics.incr routes;
          Metrics.observe hops (float_of_int (List.length h - 1))
        | None -> Metrics.incr failures
      done;
      Json.to_string (Metrics.to_json m))

let test_deterministic_json (name, make) () =
  let a = workload_json make ~seed:97 ~domains:1 in
  let b = workload_json make ~seed:97 ~domains:1 in
  Alcotest.(check string) (name ^ " same seed is byte-identical") a b;
  let c = workload_json make ~seed:97 ~domains:4 in
  Alcotest.(check string) (name ^ " domains 1 vs 4 is byte-identical") a c

let suite =
  List.concat_map
    (fun entry ->
      let name = fst entry in
      [
        QCheck_alcotest.to_alcotest (qcheck_terminates_within_bound entry);
        QCheck_alcotest.to_alcotest (qcheck_lookup_matches_oracle entry);
        QCheck_alcotest.to_alcotest (qcheck_churn_preserves_invariants entry);
        Alcotest.test_case
          (name ^ ": metrics JSON deterministic across seed and domains")
          `Quick
          (test_deterministic_json entry);
      ])
    backends
  @ List.map (fun entry -> QCheck_alcotest.to_alcotest (qcheck_route_accounting entry)) instrumented
