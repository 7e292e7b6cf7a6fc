(* wallbench: outside-in wall-clock benchmark of the overlay stack.

     main.exe --workload build|serve|churn --seed N --seconds S --trace 0|1
              [--chrome-dir DIR]
              [--commit SHA] [--source DIGEST]

   Prints the run's set-up record, notes, checks and output digest as
   [#] lines, then one JSON result line.  Exits 1 when a check fails,
   2 on bad arguments. *)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 10.0 and trace = ref 0 in
  let chrome_dir = ref "" in
  let commit = ref "unknown" and source = ref "unknown" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, " build, serve or churn");
      ("--seed", Arg.Set_int seed, " workload seed (>= 0)");
      ("--seconds", Arg.Set_float seconds, " measured seconds to fill, beyond the minimum repetitions");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: per-layer metrics");
      ("--chrome-dir", Arg.Set_string chrome_dir, " directory for the traced run's Chrome-trace JSON");
      ("--commit", Arg.Set_string commit, " commit the sources came from (recorded only)");
      ("--source", Arg.Set_string source, " digest of the sources (recorded only)");
    ]
  in
  let open Wallbench in
  let usage = "main.exe --workload W --seed N --seconds S --trace 0|1" in
  let fail msg =
    prerr_endline ("wallbench: " ^ msg);
    exit 2
  in
  (try Arg.parse_argv Sys.argv (Arg.align spec) (fun a -> fail ("unexpected argument " ^ a)) usage
   with Arg.Bad m | Arg.Help m -> prerr_string m; exit 2);
  if not (List.mem !workload Wallbench.workloads) then
    fail (Printf.sprintf "--workload must be one of %s" (String.concat ", " Wallbench.workloads));
  if !seed < 0 then fail "--seed must be given and >= 0";
  if not (!seconds >= 0.0 && !seconds <= 600.0) then fail "--seconds must be in [0, 600]";
  if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
  let traced = !trace = 1 in
  let env =
    [
      ("workload", Prelude.Json.String !workload);
      ("seed", Prelude.Json.Int !seed);
      ("seconds", Prelude.Json.Float !seconds);
      ("trace", Prelude.Json.Int !trace);
      ("nproc", Prelude.Json.Int (Domain.recommended_domain_count ()));
      ("domains", Prelude.Json.Int Common.domains);
      ("ocaml", Prelude.Json.String Sys.ocaml_version);
      ("commit", Prelude.Json.String !commit);
      ("source", Prelude.Json.String !source);
    ]
  in
  Printf.printf "# env %s\n%!" (Prelude.Json.to_string (Prelude.Json.Obj env));
  let params =
    { Common.seed = !seed; scale = 1; seconds = !seconds; chrome = None }
  in
  let p, o = Wallbench.run params ~workload:!workload ~traced in
  List.iter (Printf.printf "# %s\n") o.Report.notes;
  List.iter
    (fun (name, r) ->
      match r with
      | Ok () -> Printf.printf "# check ok: %s\n" name
      | Error e -> Printf.printf "# check FAILED: %s: %s\n" name e)
    o.Report.checks;
  Printf.printf "# digest %s seed %d: %s\n" !workload !seed o.Report.digest;
  (match p.Common.chrome with
  | Some c when !chrome_dir <> "" ->
    let path =
      Filename.concat !chrome_dir (Printf.sprintf "%s-seed%d.trace.json" !workload !seed)
    in
    Chrome.write c ~meta:env path;
    Printf.printf "# chrome trace: %s\n" path
  | _ -> ());
  let correct, bad, line = Report.result_line ~catalogue:(Wallbench.catalogue ~traced) o in
  List.iter (Printf.printf "# non-finite metric: %s\n") bad;
  print_endline line;
  exit (if correct then 0 else 1)
