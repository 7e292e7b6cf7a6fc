(* Benchmark harness: reproduces every table and figure of the paper's
   evaluation (default) and runs Bechamel micro-benchmarks of the core
   primitives.

   Usage:
     dune exec bench/main.exe                  -- everything, full size
     dune exec bench/main.exe -- --scale 4     -- quarter-size workloads
     dune exec bench/main.exe -- --only fig10  -- a single experiment
     dune exec bench/main.exe -- --micro-only  -- just the micro-benchmarks
     dune exec bench/main.exe -- --no-micro    -- just the paper experiments
     dune exec bench/main.exe -- --json out.json -- also dump the metrics
                                                    registry as JSON *)

module Registry = Workload.Registry

(* ---- micro-benchmarks ---- *)

module Micro = struct
  open Bechamel
  open Toolkit

  module Ts = Topology.Transit_stub
  module Oracle = Topology.Oracle
  module Can_overlay = Can.Overlay
  module Ecan_exp = Ecan.Expressway
  module Hilbert = Geometry.Hilbert
  module Point = Geometry.Point
  module Store = Softstate.Store
  module Rng = Prelude.Rng

  (* Shared fixtures, built once. *)
  let oracle =
    lazy (Oracle.build (Ts.generate (Rng.create 9) (Ts.tsk_large ~latency:Ts.Manual ~scale:4 ())))

  let overlay =
    lazy
      (let rng = Rng.create 10 in
       let can = Can_overlay.random ~dims:2 rng 1024 in
       let e = Ecan_exp.create ~span_bits:2 can in
       let sel = Rng.create 11 in
       Ecan_exp.build_tables e ~selector:(fun ~node:_ ~region:_ ~candidates ->
           Some (Rng.pick sel candidates));
       e)

  let store_fixture =
    lazy
      (let e = Lazy.force overlay in
       let can = Ecan_exp.can e in
       let o = Lazy.force oracle in
       let lms = Landmark.Landmarks.choose (Rng.create 12) o 15 in
       let scheme =
         Landmark.Number.default_scheme
           ~max_latency:(Landmark.Number.calibrate_max_latency o (Landmark.Landmarks.nodes lms))
           ()
       in
       let store = Store.create ~scheme can in
       let vectors = Hashtbl.create 1024 in
       Array.iter
         (fun node ->
           let v = Landmark.Landmarks.vector lms node in
           Hashtbl.replace vectors node v;
           Store.publish_all store ~span_bits:2 ~node ~vector:v)
         (Can_overlay.node_ids can);
       (store, vectors))

  let tests () =
    let o = Lazy.force oracle in
    let e = Lazy.force overlay in
    let can = Ecan_exp.can e in
    let store, vectors = Lazy.force store_fixture in
    let n = Oracle.node_count o in
    let rng = Rng.create 13 in
    let members = Can_overlay.node_ids can in
    let some_vector = Hashtbl.find vectors members.(0) in
    [
      Test.make ~name:"hilbert-encode-3d"
        (Staged.stage (fun () -> Hilbert.index_of_coords ~bits:8 [| 17; 201; 96 |]));
      Test.make ~name:"hilbert-decode-3d"
        (Staged.stage (fun () -> Hilbert.coords_of_index ~bits:8 ~dims:3 123_456));
      Test.make ~name:"zcurve-encode-3d"
        (Staged.stage (fun () -> Geometry.Zcurve.index_of_coords ~bits:8 [| 17; 201; 96 |]));
      Test.make ~name:"oracle-distance"
        (Staged.stage (fun () -> Oracle.dist o (Rng.int rng n) (Rng.int rng n)));
      Test.make ~name:"can-route-1k"
        (Staged.stage (fun () ->
             Can_overlay.route can ~src:(Rng.pick rng members) (Point.random rng 2)));
      Test.make ~name:"ecan-route-1k"
        (Staged.stage (fun () ->
             Ecan_exp.route e ~src:(Rng.pick rng members) (Point.random rng 2)));
      Test.make ~name:"softstate-lookup"
        (Staged.stage (fun () ->
             Store.lookup store ~region:[||] ~vector:some_vector ~max_results:16 ~ttl:2 ()));
      Test.make ~name:"can-owner-of"
        (Staged.stage (fun () -> Can_overlay.owner_of can (Point.random rng 2)));
      Test.make ~name:"fault-plan"
        (Staged.stage (fun () ->
             let f = Engine.Faults.create ~seed:(Rng.int rng 1_000_000) () in
             Engine.Faults.plan f Engine.Faults.default_storm));
    ]

  let run ppf =
    Format.fprintf ppf "@.>>> micro — Bechamel micro-benchmarks of core primitives@.";
    let test = Test.make_grouped ~name:"micro" ~fmt:"%s %s" (tests ()) in
    let instances = Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
    let raw = Benchmark.all cfg instances test in
    let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
    let results =
      Analyze.merge ols instances (List.map (fun i -> Analyze.all ols i raw) instances)
    in
    let rows = ref [] in
    Hashtbl.iter
      (fun _measure tbl ->
        Hashtbl.iter
          (fun name ols_result ->
            match Analyze.OLS.estimates ols_result with
            | Some (t :: _) -> rows := (name, t) :: !rows
            | Some [] | None -> ())
          tbl)
      results;
    List.iter
      (fun (name, t) -> Format.fprintf ppf "  %-28s %12.1f ns/op@." name t)
      (List.sort compare !rows);
    Format.pp_print_flush ppf ()
end

let () =
  let scale = ref 1 in
  let only = ref None in
  let micro = ref true in
  let paper = ref true in
  let json = ref None in
  let args = Array.to_list Sys.argv in
  let rec parse = function
    | [] -> ()
    | "--scale" :: v :: rest ->
      (match int_of_string_opt v with
      | Some s when s >= 1 -> scale := s
      | Some _ | None ->
        Format.eprintf "bad --scale %S: expected a positive integer (e.g. --scale 4)@." v;
        exit 2);
      parse rest
    | "--only" :: v :: rest ->
      only := Some v;
      parse rest
    | "--json" :: v :: rest ->
      json := Some v;
      parse rest
    | "--micro-only" :: rest ->
      paper := false;
      parse rest
    | "--no-micro" :: rest ->
      micro := false;
      parse rest
    | _ :: rest -> parse rest
  in
  parse args;
  let ppf = Format.std_formatter in
  (match (!paper, !only) with
  | false, _ -> ()
  | true, Some id ->
    (match Registry.find id with
    | Some e -> e.Registry.run ~scale:!scale ppf
    | None ->
      Format.fprintf ppf "unknown experiment %S; known:@." id;
      List.iter (fun e -> Format.fprintf ppf "  %s@." e.Registry.name) Registry.all;
      exit 1)
  | true, None -> Registry.run_all ~scale:!scale ppf);
  if !micro && !only = None then Micro.run ppf;
  (* The experiments record into the process-global registry as they run;
     the dump is deterministic (sorted instruments, fixed float format),
     so same-seed runs produce byte-identical files. *)
  match !json with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    output_string oc (Prelude.Json.to_string (Engine.Metrics.to_json Engine.Metrics.global));
    output_char oc '\n';
    close_out oc;
    Format.fprintf ppf "metrics written to %s@." path
