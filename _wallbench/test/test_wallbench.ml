(* Tiny-size runs of every workload (scale 32, minimum repetitions). *)

open Wallbench

let params ?(seed = 1) () = { Common.seed; scale = 32; seconds = 0.0; chrome = None }
let run ?seed ~traced workload = snd (Wallbench.run (params ?seed ()) ~workload ~traced)
let metric (o : Report.outcome) name = Option.value ~default:0.0 (List.assoc_opt name o.Report.metrics)

let correct ~traced (o : Report.outcome) =
  let ok, bad, _ = Report.result_line ~catalogue:(Wallbench.catalogue ~traced) o in
  List.iter
    (fun (name, r) -> match r with Ok () -> () | Error e -> Alcotest.failf "check %s: %s" name e)
    o.Report.checks;
  Alcotest.(check (list string)) "no non-finite metric" [] bad;
  Alcotest.(check bool) "result is correct" true ok

let smoke workload () =
  let o = run ~traced:false workload in
  correct ~traced:false o;
  List.iter
    (fun (name, _) ->
      let v = metric o name in
      if not (v > 0.0) then Alcotest.failf "%s: end-to-end metric %s is %g" workload name v)
    Report.end_to_end

let traced workload () =
  let o = run ~traced:true workload in
  correct ~traced:true o;
  let run_s = metric o "trace.run_s" and self = metric o "trace.self_sum_s" in
  if not (run_s > 0.0) then Alcotest.failf "%s: trace.run_s is %g" workload run_s;
  if self > run_s then Alcotest.failf "%s: self times %g s sum above run_s %g s" workload self run_s;
  let u = metric o "unaccounted_frac" in
  if not (u >= 0.0 && u <= 1.0) then Alcotest.failf "%s: unaccounted_frac %g" workload u

let digests workload () =
  let d seed = (run ~seed ~traced:false workload).Report.digest in
  let a = d 1 in
  Alcotest.(check string) "same seed, same digest" a (d 1);
  if d 2 = a then Alcotest.failf "%s: seeds 1 and 2 print the same digest" workload

let names () =
  let all = Report.end_to_end @ Report.per_layer in
  List.iter (fun (n, _) -> if not (Report.valid_name n) then Alcotest.failf "bad metric name %S" n) all;
  Alcotest.(check int) "names are unique" (List.length all)
    (List.length (List.sort_uniq compare (List.map fst all)));
  List.iter (fun w -> if not (Report.valid_name w) then Alcotest.failf "bad workload name %S" w) workloads

(* BENCHMARK.json lists the same metrics, units and workloads. *)
let benchmark_json () =
  let ic = open_in "../BENCHMARK.json" in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let json = match Prelude.Json.of_string text with Ok j -> j | Error e -> Alcotest.fail e in
  let entries key =
    match Option.bind (Prelude.Json.member key json) Prelude.Json.to_list_opt with
    | Some l -> l
    | None -> Alcotest.failf "BENCHMARK.json has no list %S" key
  in
  let field k e = Option.bind (Prelude.Json.member k e) Prelude.Json.to_string_opt |> Option.get in
  let metrics key = List.map (fun e -> (field "name" e, field "unit" e)) (entries key) in
  let pairs = Alcotest.(list (pair string string)) in
  Alcotest.check pairs "end_to_end" Report.end_to_end (metrics "end_to_end");
  Alcotest.check pairs "per_layer" Report.per_layer (metrics "per_layer");
  Alcotest.(check (list string)) "workloads" workloads (List.map (field "name") (entries "workloads"))

let chrome () =
  let p = { (params ()) with Common.chrome = Some (Chrome.create ()) } in
  let p, _ = Wallbench.run p ~workload:"churn" ~traced:true in
  let c = Option.get p.Common.chrome in
  match Prelude.Json.member "traceEvents" (Chrome.to_json c ~meta:[]) with
  | Some (Prelude.Json.List (_ :: _ as evs)) ->
    List.iter
      (fun e ->
        if Prelude.Json.member "ph" e <> Some (Prelude.Json.String "X") then
          Alcotest.fail "every span is a complete (X) event")
      evs
  | _ -> Alcotest.fail "no trace events"

let () =
  let per_workload name f = List.map (fun w -> Alcotest.test_case (name ^ " " ^ w) `Quick (f w)) workloads in
  Alcotest.run "wallbench"
    [
      ("smoke", per_workload "untraced" smoke @ per_workload "traced" traced);
      ("determinism", per_workload "digest" digests);
      ( "catalogue",
        [
          Alcotest.test_case "metric names" `Quick names;
          Alcotest.test_case "BENCHMARK.json" `Quick benchmark_json;
          Alcotest.test_case "chrome trace" `Quick chrome;
        ] );
    ]
