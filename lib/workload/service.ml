module Oracle = Topology.Oracle
module Builder = Core.Builder
module Strategy = Core.Strategy
module Store = Softstate.Store
module Can_overlay = Can.Overlay
module Ecan_exp = Ecan.Expressway
module Zone = Geometry.Zone
module Rng = Prelude.Rng

type t = {
  name : string;
  member : int -> bool;
  home_of : int -> int;
  route_to : src:int -> dst:int -> int list option;
  candidates : node:int -> exclude:int list -> int list;
  publish_load : node:int -> load:float -> unit;
  on_remove : int -> unit;
  on_join : int -> unit;
}

(* SplitMix64 finalizer: spreads consecutive key ids over the key space
   so home nodes are uniform regardless of the Zipf rank order. *)
let mix62 k =
  let z = Int64.add (Int64.of_int k) 0x9E3779B97F4A7C15L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  Int64.to_int (Int64.shift_right_logical z 2)

let reset_loads b =
  let store = b.Builder.store in
  Array.iter
    (fun node ->
      List.iter
        (fun region -> Store.update_stats store ~region ~node ~load:0.0 ~capacity:1.0)
        (Store.regions_of store node))
    b.Builder.members

(* eCAN / plain CAN share the builder's substrate: homes come from CAN
   zone ownership of the key's hashed point, placement proposals from a
   root-region soft-state lookup around the node's landmark vector that
   skips entries whose (freshly published) load crossed the threshold —
   the §6 load/capacity fields doing service-layer work.  The maintenance
   plane keeps the substrate itself up to date, so there is no upkeep. *)
let of_builder ~name ~route b =
  let can = Ecan_exp.can b.Builder.ecan in
  let store = b.Builder.store in
  let point_of_key key =
    let h = mix62 key in
    let x = float_of_int (h land 0x3FFFFFFF) /. 1073741824.0 in
    let y = float_of_int ((h lsr 30) land 0x3FFFFFFF) /. 1073741824.0 in
    [| x; y |]
  in
  {
    name;
    member = Can_overlay.mem can;
    home_of = (fun key -> Can_overlay.owner_of can (point_of_key key));
    route_to =
      (fun ~src ~dst ->
        if not (Can_overlay.mem can dst) then None
        else route ~src (Zone.center (Can_overlay.node can dst).Can_overlay.zone));
    candidates =
      (fun ~node ~exclude ->
        let vector = Builder.vector_of b node in
        Store.lookup store ~region:[||] ~vector ~max_results:12 ~ttl:2 ~max_load:0.99 ()
        |> List.filter_map (fun (e : Store.Entry.t) ->
               let c = e.Store.Entry.node in
               if c <> node && (not (List.mem c exclude)) && Can_overlay.mem can c then Some c
               else None));
    publish_load =
      (fun ~node ~load ->
        List.iter
          (fun region -> Store.update_stats store ~region ~node ~load ~capacity:1.0)
          (Store.regions_of store node));
    on_remove = ignore;
    on_join = ignore;
  }

let ecan ~name b = of_builder ~name ~route:(fun ~src p -> Ecan_exp.route b.Builder.ecan ~src p) b

let can ~name b =
  let can = Ecan_exp.can b.Builder.ecan in
  of_builder ~name ~route:(fun ~src p -> Can_overlay.route can ~src p) b

(* Chord / Pastry / Koorde: the builder's member population, tables from
   the vector-then-probe selection the xover experiment uses (for Koorde
   over image-arc cover sets of only ~k candidates per node), rebuilt on
   every membership change.  With no soft-state plane of their own,
   placement proposals are the physically nearest members — the
   service-level optimum a map lookup approximates. *)
let ring ~salt make ~seed b =
  let oracle = b.Builder.oracle in
  let be : Backend.t = make (Rng.create ((seed * 6007) + salt)) in
  Array.iter be.add b.Builder.members;
  let pick =
    Strategy.hybrid_pick ~measure:(Oracle.measure oracle) ~vector_of:(Builder.vector_of b) ~rtts:5
  in
  be.rebuild ~pick;
  {
    name = be.name;
    member = be.mem;
    home_of = (fun key -> be.owner (mix62 key mod be.key_space));
    route_to =
      (fun ~src ~dst -> if not (be.mem dst) then None else be.route ~src ~key:(be.key_of dst));
    candidates =
      (fun ~node ~exclude ->
        Array.to_list (be.node_ids ())
        |> List.filter (fun c -> c <> node && not (List.mem c exclude))
        |> List.map (fun c -> (Oracle.dist oracle node c, c))
        |> List.sort compare
        |> List.filteri (fun i _ -> i < 12)
        |> List.map snd);
    publish_load = (fun ~node:_ ~load:_ -> ());
    on_remove =
      (fun v ->
        be.remove v;
        be.rebuild ~pick);
    on_join =
      (fun n ->
        be.add n;
        be.rebuild ~pick);
  }

let cache_backend s =
  {
    Engine.Cache.name = s.name;
    member = s.member;
    home_of = s.home_of;
    route_to = s.route_to;
    near = (fun ~node ~exclude -> List.nth_opt (s.candidates ~node ~exclude) 0);
    publish_load = s.publish_load;
  }

let mcast_backend s =
  {
    Engine.Mcast.name = s.name;
    member = s.member;
    route_to = s.route_to;
    candidates = s.candidates;
    publish_load = s.publish_load;
  }
