(* The metric catalogue and the result a workload run hands back.

   Every run reports every name of its catalogue: the untraced run the
   end-to-end metrics, the traced run the per-layer metrics.  A per-layer
   metric of a layer the workload's timed phase never calls reads 0. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("run_s", "s");
    ("ops_per_s", "1/s");
    ("op_p50_us", "us");
    ("op_tail_us", "us");
    ("peak_rss_mb", "MB");
    ("stretch_mean", "ratio");
    ("delivered_p50_ms", "ms");
    ("probes_per_member", "count");
    ("msgs_per_event", "count");
  ]

let per_layer =
  [
    ("topology.generate_s", "s");
    ("topology.oracle_s", "s");
    ("can.join_s", "s");
    ("can.join_us_p50", "us");
    ("can.join_us_tail", "us");
    ("can.home_of_s", "s");
    ("landmark.vector_s", "s");
    ("store.publish_all_s", "s");
    ("store.lookup_calls", "count");
    ("store.lookup_s", "s");
    ("store.lookup_us_p50", "us");
    ("store.lookup_us_tail", "us");
    ("store.rehost_ms", "ms");
    ("ecan.build_tables_s", "s");
    ("ecan.selector_calls", "count");
    ("ecan.selector_s", "s");
    ("ecan.table_walk_s", "s");
    ("ecan.route_calls", "count");
    ("ecan.route_s", "s");
    ("ecan.route_us_p50", "us");
    ("ecan.route_hops_mean", "count");
    ("probe.batch_calls", "count");
    ("probe.batch_s", "s");
    ("probe.rtt_calls", "count");
    ("probe.rtt_s", "s");
    ("probe.cache_lookups", "count");
    ("probe.cache_hit_ratio", "ratio");
    ("probe.measurements", "count");
    ("cache.requests", "count");
    ("cache.hit_ratio", "ratio");
    ("cache.replications", "count");
    ("cache.near_calls", "count");
    ("cache.near_s", "s");
    ("cache.publish_load_s", "s");
    ("cache.self_s", "s");
    ("maint.calls", "count");
    ("maint.calls_s", "s");
    ("maint.join_ms_p50", "ms");
    ("maint.leave_ms_p50", "ms");
    ("maint.crash_ms_p50", "ms");
    ("maint.staleness_s", "s");
    ("maint.reselections", "count");
    ("maint.refreshes", "count");
    ("sim.events", "count");
    ("sim.timer_s", "s");
    ("bus.channel_calls", "count");
    ("bus.channel_s", "s");
    ("bus.sent", "count");
    ("bus.delivered", "count");
    ("bus.dropped", "count");
    ("bus.delivered_ratio", "ratio");
    ("gc.minor_mwords", "Mwords");
    ("gc.major_collections", "count");
    ("gc.top_heap_mb", "MB");
    ("trace.run_s", "s");
    ("trace.untraced_run_s", "s");
    ("trace.self_sum_s", "s");
    ("trace.overhead_frac", "ratio");
    ("unaccounted_frac", "ratio");
  ]

let valid_name s =
  s <> ""
  && String.length s <= 64
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s

type outcome = {
  metrics : (string * float) list;
  attempted : int;  (** operations and checks attempted *)
  failed : int;  (** of which failed *)
  checks : (string * (unit, string) result) list;  (** correctness checks, in order *)
  digest : string;  (** digest of the deterministic outputs *)
  notes : string list;  (** human-readable lines printed before the result *)
}

let check name ok detail = (name, if ok then Ok () else Error detail)
let failures checks = List.length (List.filter (fun (_, r) -> Result.is_error r) checks)

(* Self-time metrics of a traced run: [trace.self_sum_s] and
   [unaccounted_frac] from the layers' self times over the run. *)
let accounting ~run_s self_times =
  let sum = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 self_times in
  [ ("trace.self_sum_s", sum); ("unaccounted_frac", 1.0 -. (sum /. run_s)) ]

let number x = Printf.sprintf "%.17g" x

(* The last line of a run: [correct], [attempted], [failed] and one
   entry per catalogue name.  Names a workload did not report read 0;
   a name outside the catalogue or a non-finite value is an error. *)
let result_line ~catalogue (o : outcome) =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name catalogue) then
        invalid_arg (Printf.sprintf "metric %S is not in the catalogue" name))
    o.metrics;
  let bad = ref [] in
  let entries =
    List.map
      (fun (name, unit) ->
        let v = Option.value ~default:0.0 (List.assoc_opt name o.metrics) in
        if not (Float.is_finite v) then bad := name :: !bad;
        let v = if Float.is_finite v then v else 0.0 in
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number v) unit)
      catalogue
  in
  let correct =
    o.failed = 0 && !bad = [] && List.for_all (fun (_, r) -> Result.is_ok r) o.checks
  in
  ( correct,
    List.rev !bad,
    Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
      correct (max 1 o.attempted) o.failed (String.concat ", " entries) )
