(* Cross-module property tests (qcheck): structural invariants that must
   hold for arbitrary inputs, beyond the per-module example tests. *)

module Rng = Prelude.Rng
module Stats = Prelude.Stats
module Graph = Topology.Graph
module Dijkstra = Topology.Dijkstra
module Zone = Geometry.Zone
module Point = Geometry.Point
module Hilbert = Geometry.Hilbert
module Zcurve = Geometry.Zcurve
module Can_overlay = Can.Overlay
module Ring = Chord.Ring
module Sim = Engine.Sim

(* Random connected weighted graph for Dijkstra properties. *)
let random_graph seed n extra =
  let rng = Rng.create seed in
  let edges = ref [] in
  for i = 1 to n - 1 do
    edges := (Rng.int rng i, i, Rng.float_in rng 1.0 20.0) :: !edges
  done;
  let seen = Hashtbl.create 16 in
  List.iter (fun (u, v, _) -> Hashtbl.replace seen (min u v, max u v) ()) !edges;
  let added = ref 0 in
  let attempts = ref 0 in
  while !added < extra && !attempts < extra * 10 do
    incr attempts;
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v && not (Hashtbl.mem seen (min u v, max u v)) then begin
      Hashtbl.replace seen (min u v, max u v) ();
      edges := (u, v, Rng.float_in rng 1.0 20.0) :: !edges;
      incr added
    end
  done;
  Graph.make n !edges

let qcheck_degree_sum =
  QCheck.Test.make ~name:"sum of degrees = 2 * edges" ~count:100
    QCheck.(pair (int_range 0 10_000) (int_range 2 40))
    (fun (seed, n) ->
      let g = random_graph seed n n in
      let sum = ref 0 in
      for u = 0 to n - 1 do
        sum := !sum + Graph.degree g u
      done;
      !sum = 2 * Graph.edge_count g)

let qcheck_dijkstra_triangle =
  QCheck.Test.make ~name:"shortest paths satisfy the triangle inequality" ~count:40
    QCheck.(pair (int_range 0 10_000) (int_range 3 25))
    (fun (seed, n) ->
      let g = random_graph seed n n in
      let d = Array.init n (fun src -> Dijkstra.distances g src) in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          for w = 0 to n - 1 do
            if d.(u).(w) > d.(u).(v) +. d.(v).(w) +. 1e-9 then ok := false
          done
        done
      done;
      !ok)

let qcheck_dijkstra_symmetric =
  QCheck.Test.make ~name:"undirected shortest paths are symmetric" ~count:40
    QCheck.(pair (int_range 0 10_000) (int_range 2 30))
    (fun (seed, n) ->
      let g = random_graph seed n (n / 2) in
      let ok = ref true in
      for u = 0 to n - 1 do
        let du = Dijkstra.distances g u in
        for v = 0 to n - 1 do
          if Float.abs (du.(v) -. Dijkstra.distance g v u) > 1e-9 then ok := false
        done
      done;
      !ok)

(* Zones arising from random split paths. *)
let zone_of_random_path rng depth =
  let bits = Array.init depth (fun _ -> Rng.int rng 2) in
  Can_overlay.zone_of_path ~dims:2 bits

let qcheck_zone_neighbor_symmetric =
  QCheck.Test.make ~name:"zone adjacency is symmetric" ~count:200
    QCheck.(triple (int_range 0 10_000) (int_range 0 6) (int_range 0 6))
    (fun (seed, d1, d2) ->
      let rng = Rng.create seed in
      let a = zone_of_random_path rng d1 and b = zone_of_random_path rng d2 in
      Zone.is_neighbor a b = Zone.is_neighbor b a)

let qcheck_zone_shrink_volume =
  QCheck.Test.make ~name:"shrink scales volume by exactly f" ~count:200
    QCheck.(pair (int_range 0 10_000) (float_range 0.01 1.0))
    (fun (seed, f) ->
      let rng = Rng.create seed in
      let z = zone_of_random_path rng (Rng.int rng 8) in
      Float.abs (Zone.volume (Zone.shrink z f) -. (f *. Zone.volume z)) < 1e-9)

let qcheck_zone_subzone_containment =
  QCheck.Test.make ~name:"subzone maps unit points into the zone" ~count:200
    QCheck.(triple (int_range 0 10_000) (float_range 0.0 0.999) (float_range 0.0 0.999))
    (fun (seed, x, y) ->
      let rng = Rng.create seed in
      let z = zone_of_random_path rng (Rng.int rng 8) in
      Zone.contains z (Zone.subzone z [| x; y |]))

let qcheck_hilbert_beats_zcurve_locality =
  (* The reason Hilbert is the default: consecutive indices are always
     adjacent cells, while Morton jumps.  Quantified over random runs. *)
  QCheck.Test.make ~name:"hilbert locality strictly better than z-order on index runs" ~count:20
    QCheck.(int_range 0 1000)
    (fun start ->
      let bits = 4 and dims = 2 in
      let total = 1 lsl (bits * dims) in
      let start = start mod (total - 32) in
      let jump coords_of =
        let acc = ref 0 in
        for idx = start to start + 30 do
          let a = coords_of ~bits ~dims idx and b = coords_of ~bits ~dims (idx + 1) in
          let d = ref 0 in
          for i = 0 to dims - 1 do
            d := !d + abs (a.(i) - b.(i))
          done;
          acc := !acc + !d
        done;
        !acc
      in
      jump Hilbert.coords_of_index <= jump Zcurve.coords_of_index)

let qcheck_rng_chance_extremes =
  QCheck.Test.make ~name:"chance 0 never fires, chance 1 always fires" ~count:50
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let ok = ref true in
      for _ = 1 to 50 do
        if Rng.chance rng 0.0 then ok := false;
        if not (Rng.chance rng 1.0) then ok := false
      done;
      !ok)

let qcheck_rng_split_deterministic =
  QCheck.Test.make ~name:"split derives the same child from the same state" ~count:100
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let a = Rng.create seed and b = Rng.create seed in
      let ca = Rng.split a and cb = Rng.split b in
      Rng.bits64 ca = Rng.bits64 cb && Rng.bits64 a = Rng.bits64 b)

let qcheck_stats_percentile_bounds =
  QCheck.Test.make ~name:"percentiles lie within sample bounds and are monotone" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 50) (float_bound_exclusive 1000.0))
    (fun xs ->
      let arr = Array.of_list xs in
      let lo = Array.fold_left Float.min arr.(0) arr in
      let hi = Array.fold_left Float.max arr.(0) arr in
      let p25 = Stats.percentile arr 25.0
      and p50 = Stats.percentile arr 50.0
      and p75 = Stats.percentile arr 75.0 in
      lo <= p25 && p25 <= p50 && p50 <= p75 && p75 <= hi)

let qcheck_sim_fires_sorted =
  QCheck.Test.make ~name:"events fire in nondecreasing time order" ~count:100
    QCheck.(list_of_size (Gen.int_range 0 40) (float_bound_exclusive 1000.0))
    (fun delays ->
      let sim = Sim.create () in
      let fired = ref [] in
      List.iter (fun d -> ignore (Sim.schedule sim ~delay:d (fun () -> fired := Sim.now sim :: !fired))) delays;
      Sim.run sim;
      let times = List.rev !fired in
      List.length times = List.length delays
      && fst
           (List.fold_left
              (fun (ok, prev) t -> (ok && t >= prev, t))
              (true, neg_infinity) times))

let qcheck_can_owner_total =
  QCheck.Test.make ~name:"every point has exactly one owner" ~count:25
    QCheck.(pair (int_range 0 10_000) (int_range 1 50))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let t = Can_overlay.random ~dims:2 rng n in
      let ok = ref true in
      for _ = 1 to 30 do
        let p = Point.random rng 2 in
        let owner = Can_overlay.owner_of t p in
        (* the owner's zone contains p, and no other member's zone does *)
        if not (Zone.contains (Can_overlay.node t owner).Can_overlay.zone p) then ok := false;
        Array.iter
          (fun id ->
            if id <> owner && Zone.contains (Can_overlay.node t id).Can_overlay.zone p then
              ok := false)
          (Can_overlay.node_ids t)
      done;
      !ok)

let qcheck_can_prefix_membership_bruteforce =
  QCheck.Test.make ~name:"members_with_prefix = brute-force path-prefix scan" ~count:25
    QCheck.(triple (int_range 0 10_000) (int_range 2 60) (int_range 0 6))
    (fun (seed, n, plen) ->
      let rng = Rng.create seed in
      let t = Can_overlay.random ~dims:2 rng n in
      let prefix = Array.init plen (fun _ -> Rng.int rng 2) in
      let fast = List.sort compare (Array.to_list (Can_overlay.members_with_prefix t prefix)) in
      let brute =
        List.sort compare
          (List.filter
             (fun id ->
               let path = (Can_overlay.node t id).Can_overlay.path in
               Array.length path >= plen
               && Array.for_all2 ( = ) prefix (Array.sub path 0 plen))
             (Array.to_list (Can_overlay.node_ids t)))
      in
      fast = brute
      && Array.for_all
           (fun id -> Can_overlay.in_region t prefix id = List.mem id brute)
           (Array.init (n + 2) (fun id -> id)))

(* Chord and Koorde sit on the same identifier ring, so the ring
   brute-force checks take the overlay as one more input: [n] seeded
   members, then the ring size and the member queries. *)
let seeded_ring ~koorde seed n =
  let rng = Rng.create seed in
  if koorde then begin
    let module K = Koorde.Debruijn in
    let t = K.create () in
    for id = 0 to n - 1 do
      K.add_node t ~rng id
    done;
    (1 lsl K.key_bits t, K.key_of t, K.node_ids t, K.arc_members t, K.successor_node t)
  end
  else begin
    let t = Ring.create () in
    for id = 0 to n - 1 do
      Ring.add_node t ~rng id
    done;
    let ring = 1 lsl Ring.key_bits t in
    (ring, Ring.key_of t, Ring.node_ids t, Ring.arc_members t, Ring.successor_node t)
  end

let qcheck_chord_arc_bruteforce =
  QCheck.Test.make ~name:"arc_members = brute-force key scan" ~count:30
    QCheck.(
      quad bool (int_range 0 10_000) (int_range 1 50)
        (pair (int_range 0 1_000_000) (int_range 1 1_000_000)))
    (fun (koorde, seed, n, (lo_raw, span_raw)) ->
      let ring, key_of, ids, arc_members, _ = seeded_ring ~koorde seed n in
      let lo = lo_raw mod ring and span = 1 + (span_raw mod (ring - 1)) in
      let fast = List.sort compare (Array.to_list (arc_members ~lo ~span)) in
      let brute =
        List.sort compare
          (List.filter
             (fun id ->
               let k = key_of id in
               let d = ((k - lo) mod ring + ring) mod ring in
               d < span)
             (Array.to_list ids))
      in
      fast = brute)

let qcheck_chord_successor_bruteforce =
  QCheck.Test.make ~name:"successor_node = brute-force clockwise minimum" ~count:30
    QCheck.(quad bool (int_range 0 10_000) (int_range 1 40) (int_range 0 1_000_000))
    (fun (koorde, seed, n, key_raw) ->
      let ring, key_of, ids, _, successor_node = seeded_ring ~koorde seed n in
      let key = key_raw mod ring in
      let clockwise from target = ((target - from) mod ring + ring) mod ring in
      let brute =
        Array.fold_left
          (fun best id ->
            let d = clockwise key (key_of id) in
            match best with
            | Some (bd, _) when bd <= d -> best
            | _ -> Some (d, id))
          None ids
      in
      match brute with
      | Some (_, expect) -> successor_node key = expect
      | None -> false)

(* Multimap against an association-list model, newest binding first:
   each bucket must list its values most recently added first, with
   removals keeping the survivors' order.  The prefix-member index
   hands buckets to [Rng.pick] by position, so this order is a result. *)
let qcheck_multimap_model =
  QCheck.Test.make ~name:"multimap buckets = association-list model, newest first" ~count:200
    QCheck.(list (triple (int_range 0 9) (int_range 0 5) (int_range 0 7)))
    (fun ops ->
      let module Multimap = Prelude.Multimap in
      let t = Multimap.create 4 and model = ref [] in
      let drop key p = model := List.filter (fun (k, v) -> not (k = key && p v)) !model in
      let bucket key = List.filter_map (fun (k, v) -> if k = key then Some v else None) !model in
      let agrees () =
        List.for_all (fun key -> Multimap.find t key = bucket key) [ 0; 1; 2; 3; 4; 5 ]
      in
      List.for_all
        (fun (op, key, v) ->
          (match op with
          | 0 | 1 | 2 | 3 | 4 ->
            Multimap.add t key v;
            model := (key, v) :: !model
          | 5 | 6 ->
            Multimap.remove t key (fun x -> x = v);
            drop key (fun x -> x = v)
          | 7 | 8 ->
            Multimap.remove t key (fun x -> x mod 2 = v mod 2);
            drop key (fun x -> x mod 2 = v mod 2)
          | _ ->
            Multimap.reset t;
            model := []);
          agrees ())
        ops)

let qcheck_store_lookup_subset =
  QCheck.Test.make ~name:"store lookup returns a subset of the region's live entries" ~count:20
    QCheck.(pair (int_range 0 10_000) (int_range 5 40))
    (fun (seed, n) ->
      let module Store = Softstate.Store in
      let rng = Rng.create seed in
      let can = Can_overlay.random ~dims:2 rng n in
      let scheme = Landmark.Number.default_scheme ~max_latency:100.0 () in
      let store = Store.create ~scheme can in
      for node = 0 to n - 1 do
        Store.publish store ~region:[||] ~node
          ~vector:(Array.init 5 (fun _ -> Rng.float rng 100.0))
      done;
      let all =
        List.sort_uniq compare
          (List.map (fun (e : Store.Entry.t) -> e.Store.Entry.node) (Store.region_entries store [||]))
      in
      let got =
        Store.lookup store ~region:[||]
          ~vector:(Array.init 5 (fun _ -> Rng.float rng 100.0))
          ~max_results:8 ~ttl:4 ()
      in
      List.for_all (fun (e : Store.Entry.t) -> List.mem e.Store.Entry.node all) got
      && List.length got <= 8)

let qcheck_serialize_roundtrip =
  QCheck.Test.make ~name:"serialize/parse roundtrips random topologies" ~count:20
    QCheck.(
      pair (int_range 0 10_000)
        (quad (int_range 1 3) (int_range 1 3) (int_range 1 3) (int_range 1 6)))
    (fun (seed, (domains, per_domain, stubs_per, stub_size)) ->
      let module Ts = Topology.Transit_stub in
      let p =
        {
          Ts.transit_domains = domains;
          transit_nodes_per_domain = per_domain;
          stubs_per_transit_node = stubs_per;
          stub_size;
          extra_domain_edges = domains;
          extra_edge_fraction = 0.3;
          latency = Ts.Gtitm_random;
        }
      in
      let t = Ts.generate (Rng.create seed) p in
      match Topology.Serialize.of_string (Topology.Serialize.to_string t) with
      | Ok t' ->
        List.sort compare (Graph.edges t.Ts.graph) = List.sort compare (Graph.edges t'.Ts.graph)
        && t.Ts.stub_members = t'.Ts.stub_members
      | Error _ -> false)

let qcheck_hilbert_point_roundtrip_cell =
  QCheck.Test.make ~name:"point -> index -> cell center stays within a cell" ~count:200
    QCheck.(pair (float_range 0.0 0.999) (float_range 0.0 0.999))
    (fun (x, y) ->
      let bits = 5 in
      let idx = Hilbert.index_of_point ~bits [| x; y |] in
      let back = Hilbert.point_of_index ~bits ~dims:2 idx in
      let cell = 1.0 /. float_of_int (1 lsl bits) in
      Float.abs (back.(0) -. x) <= cell && Float.abs (back.(1) -. y) <= cell)

let qcheck_coordinates_estimate_metric =
  QCheck.Test.make ~name:"coordinate estimates are symmetric and triangle-consistent" ~count:100
    QCheck.(list_of_size (Gen.return 9) (float_range (-100.0) 100.0))
    (fun raw ->
      match raw with
      | [ a1; a2; a3; b1; b2; b3; c1; c2; c3 ] ->
        let module C = Landmark.Coordinates in
        let a = [| a1; a2; a3 |] and b = [| b1; b2; b3 |] and c = [| c1; c2; c3 |] in
        Float.abs (C.estimate a b -. C.estimate b a) < 1e-9
        && C.estimate a c <= C.estimate a b +. C.estimate b c +. 1e-9
      | _ -> false)

let qcheck_heap_length_tracks =
  QCheck.Test.make ~name:"heap length tracks pushes and pops" ~count:100
    QCheck.(list (float_bound_exclusive 100.0))
    (fun xs ->
      let module Heap = Prelude.Heap in
      let h = Heap.create () in
      List.iteri (fun i x -> Heap.push h x i) xs;
      let n = List.length xs in
      let ok = ref (Heap.length h = n) in
      for expect = n - 1 downto 0 do
        ignore (Heap.pop h);
        if Heap.length h <> expect then ok := false
      done;
      !ok)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      qcheck_serialize_roundtrip;
      qcheck_hilbert_point_roundtrip_cell;
      qcheck_coordinates_estimate_metric;
      qcheck_heap_length_tracks;
      qcheck_degree_sum;
      qcheck_dijkstra_triangle;
      qcheck_dijkstra_symmetric;
      qcheck_zone_neighbor_symmetric;
      qcheck_zone_shrink_volume;
      qcheck_zone_subzone_containment;
      qcheck_hilbert_beats_zcurve_locality;
      qcheck_rng_chance_extremes;
      qcheck_rng_split_deterministic;
      qcheck_stats_percentile_bounds;
      qcheck_sim_fires_sorted;
      qcheck_can_owner_total;
      qcheck_can_prefix_membership_bruteforce;
      qcheck_chord_arc_bruteforce;
      qcheck_chord_successor_bruteforce;
      qcheck_multimap_model;
      qcheck_store_lookup_subset;
    ]
