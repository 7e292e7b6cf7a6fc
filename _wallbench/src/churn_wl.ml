(* Workload [churn]: the write path, on a 2,048-member eCAN built during
   set-up with [Maintenance] started at the churn experiment's periods
   (TTL 60 s, refresh 20 s, sweep 5 s, liveness 15 s, audit 30 s) and
   every table slot subscribed.  A seeded [Faults] storm — 32 crashes,
   32 leaves, 64 joins and two 10% staleness bursts over 60 s, on a
   channel with 5% loss and 0-50 ms extra delay — then runs through
   [Sim.run] to the storm's end plus 240 s of settling.

   Each repetition needs a fresh overlay, so each one runs its own
   set-up; the storm run is the timed phase and the membership calls
   the timed ops.  Each variant is its own storm, with its own membership
   sample, faults and victims. *)

open Common
module Sim = Engine.Sim
module Faults = Engine.Faults
module Maintenance = Core.Maintenance
module Bus = Pubsub.Bus

let members p = scaled p 1024 ~floor:64

let storm p =
  {
    Faults.crashes = scaled p 32 ~floor:2;
    leaves = scaled p 32 ~floor:2;
    joins = scaled p 64 ~floor:4;
    expire_bursts = 2;
    expire_fraction = 0.1;
    start = 10_000.0;
    spread = 60_000.0;
  }

let channel = { Faults.loss = 0.05; delay_min = 0.0; delay_max = 50.0 }
let ttl = 60_000.0
let refresh_period = 20_000.0
let sweep_period = 5_000.0
let liveness_period = 15_000.0
let audit_period = 30_000.0
let settle = 240_000.0
let min_membership = 8 (* never churn the overlay below this *)

type rig = {
  topo : topo;
  sim : Sim.t;
  faults : Faults.t;
  b : Builder.t;
  m : Maintenance.t;
  setup_s : float;
  registry : Engine.Metrics.t option;
}

(* Per-layer accumulators of the storm; the membership ones are always
   kept, since the membership calls are the workload's timed ops. *)
type layers = {
  joins : Timing.acc;
  leaves : Timing.acc;
  crashes : Timing.acc;
  staleness : Timing.acc;
  channel : Timing.acc;
}

let layers () =
  let a = Timing.acc in
  { joins = a (); leaves = a (); crashes = a (); staleness = a (); channel = a () }

let setup p ~storm:i ~traced (l : layers) =
  let topo = topology p in
  let t0 = Timing.now () in
  let registry = if traced then Some (Engine.Metrics.create ()) else None in
  let sim = Sim.create ?metrics:registry () in
  let faults = Faults.create ~channel ~seed:(variant_seed p i 5) () in
  let config = { (build_config p ~members:(members p) ~variant:i ~k:4) with Builder.ttl } in
  let b = Builder.build ~clock:(fun () -> Sim.now sim) topo.oracle config in
  let perturb = Faults.perturb faults in
  let channel = if traced then fun base -> Timing.timed l.channel (fun () -> perturb base) else perturb in
  let m = Maintenance.start ~sim ~refresh_period ~sweep_period ~channel b in
  let can = Ecan_exp.can b.Builder.ecan in
  Maintenance.subscribe_all_slots m;
  Maintenance.enable_liveness_polling m ~period:liveness_period ~is_alive:(Can_overlay.mem can) ();
  Maintenance.enable_table_audit m ~period:audit_period ();
  { topo; sim; faults; b; m; registry;
    setup_s = topo.generate_s +. topo.oracle_s +. (Timing.now () -. t0) }

type storm_result = {
  run_s : float;
  ops : Timing.samples;  (** wall-clock per membership call *)
  failed : int;
  events : int;
  measurements : int;
  routes : routes;
  checks : (string * (unit, string) result) list;
  digest : string;
  gc : (string * float) list;
}

(* Install the storm, run it and the settle window, then check. *)
let run_storm p ~storm:i (l : layers) r =
  let can = Ecan_exp.can r.b.Builder.ecan in
  let joiners =
    Array.of_seq
      (Seq.filter (fun i -> not (Can_overlay.mem can i)) (Seq.init (Oracle.node_count r.topo.oracle) Fun.id))
  in
  let next_join = ref 0 in
  let drv = Rng.create (variant_seed p i 6) in
  let ops = Timing.samples () and failed = ref 0 in
  let call a what f =
    let t0 = Timing.now () in
    (try f () with e -> incr failed; Faults.note r.faults (what ^ " raised " ^ Printexc.to_string e));
    let d = Timing.now () -. t0 in
    Timing.add ops d;
    Timing.record a d;
    Option.iter
      (fun c -> Chrome.span c ~cat:"maintenance" ~tid:2 what ~start:t0 ~stop:(t0 +. d))
      p.chrome
  in
  let victim () =
    let ids = Can_overlay.node_ids can in
    if Array.length ids > min_membership then Some (Rng.pick drv ids) else None
  in
  let handler (ev : Faults.event) =
    match ev.Faults.action with
    | Faults.Crash ->
      Option.iter
        (fun v ->
          Faults.note r.faults (Printf.sprintf "crash node %d" v);
          call l.crashes "Maintenance.node_crashes" (fun () -> Maintenance.node_crashes r.m v))
        (victim ())
    | Faults.Leave ->
      Option.iter
        (fun v ->
          Faults.note r.faults (Printf.sprintf "leave node %d" v);
          call l.leaves "Maintenance.node_departs" (fun () -> Maintenance.node_departs r.m v))
        (victim ())
    | Faults.Join ->
      if !next_join < Array.length joiners then begin
        let v = joiners.(!next_join) in
        incr next_join;
        Faults.note r.faults (Printf.sprintf "join node %d" v);
        call l.joins "Maintenance.node_joins" (fun () -> Maintenance.node_joins r.m v)
      end
    | Faults.Expire fraction ->
      let aged =
        Timing.timed l.staleness (fun () -> Store.inject_staleness r.b.Builder.store ~rng:drv ~fraction)
      in
      Faults.note r.faults (Printf.sprintf "staleness injected into %d entries" aged)
  in
  let storm = storm p in
  let plan = Faults.plan r.faults storm in
  Faults.install r.faults ~sim:r.sim ~plan ~handler;
  let horizon = storm.Faults.start +. storm.Faults.spread +. settle in
  Gc.compact ();
  let m0 = Oracle.measurements r.topo.oracle in
  let gc0 = Gc.quick_stat () in
  let (), run_s = phase p "storm and settle" (fun () -> Timing.time (fun () -> Sim.run ~until:horizon r.sim)) in
  let gc = Timing.gc_delta gc0 (Gc.quick_stat ()) in
  let measurements = Oracle.measurements r.topo.oracle - m0 in
  phase p "checks" (fun () ->
      let routes = sample_routes r.b ~pairs:(2 * Can_overlay.size can) in
      let checks =
        ("eCAN convergence at the horizon", Workload.Exp_churn.ecan_convergence r.b)
        :: invariants p r.b
        @ [ route_check routes ]
      in
      let digest =
        Digest.to_hex (Digest.string (Faults.trace_digest r.faults ^ table_digest r.b))
      in
      { run_s; ops; failed = !failed; events = List.length plan; measurements; routes; checks; digest; gc })

let msgs_per_event r (s : storm_result) =
  float_of_int (Bus.sent_count (Maintenance.bus r.m)) /. float_of_int s.events

type rep = { setup_s : float; storm : storm_result; msgs : float }

let untraced p =
  let reps =
    repeat p (fun i ->
        let l = layers () and storm = i mod variants in
        let r = phase p "setup" (fun () -> setup p ~storm ~traced:false l) in
        let s = run_storm p ~storm l r in
        let msgs = msgs_per_event r s in
        Maintenance.stop r.m;
        ({ setup_s = r.setup_s; storm = s; msgs }, s.run_s))
  in
  (* The simulated figures are means over the variants' first runs. *)
  let groups = by_variant variants reps in
  let firsts = List.map List.hd groups in
  let mean f = mean_of f firsts in
  let run_s = median_of (fun r -> r.storm.run_s) reps in
  let op_p50, op_tail, tail_note = op_latency (List.map (List.map (fun r -> r.storm.ops)) groups) in
  let events = (List.hd reps).storm.events in
  {
    Report.metrics =
      [
        ("setup_s", median_of (fun r -> r.setup_s) reps);
        ("run_s", run_s);
        ("ops_per_s", float_of_int events /. run_s);
        ("op_p50_us", op_p50);
        ("op_tail_us", op_tail);
        ("peak_rss_mb", Timing.peak_rss_mb ());
        ("stretch_mean", mean (fun r -> r.storm.routes.stretch_mean));
        ("delivered_p50_ms", mean (fun r -> r.storm.routes.delivered_p50_ms));
        ("probes_per_member", mean (fun r -> float_of_int r.storm.measurements) /. float_of_int (members p));
        ("msgs_per_event", mean (fun r -> r.msgs));
      ];
    attempted =
      List.fold_left
        (fun acc r -> acc + Timing.length r.storm.ops + r.storm.routes.attempted + List.length r.storm.checks)
        0 reps;
    failed =
      List.fold_left
        (fun acc r -> acc + r.storm.failed + r.storm.routes.failed + Report.failures r.storm.checks)
        0 reps;
    checks =
      List.concat_map (fun r -> r.storm.checks) reps
      @ [
          Report.check "every repetition of a storm replays its first run"
            (replays_match (fun r -> (r.storm.digest, r.msgs)) groups)
            "storm digests differ";
        ];
    digest = Digest.to_hex (Digest.string (String.concat "" (List.map (fun r -> r.storm.digest) firsts)));
    notes =
      [
        Printf.sprintf
          "churn: %d members, %d events per storm, %d repetitions over %d storms; ops_per_s is storm events per second of run_s, op_*_us the membership calls"
          (members p) events (List.length reps) (List.length groups);
        tail_note;
        "run_s repetitions: " ^ String.concat " " (List.map (fun r -> Printf.sprintf "%.3f" r.storm.run_s) reps);
      ];
  }

let traced p =
  let plain =
    let untraced = { p with chrome = None } and l = layers () in
    let r = setup untraced ~storm:0 ~traced:false l in
    let s = run_storm untraced ~storm:0 l r in
    Maintenance.stop r.m;
    s
  in
  let l = layers () in
  let r = phase p "setup" (fun () -> setup p ~storm:0 ~traced:true l) in
  let start = Timing.now () in
  let s = run_storm p ~storm:0 l r in
  let (), rehost_s = Timing.time (fun () -> Store.rehost r.b.Builder.store) in
  let bus = Maintenance.bus r.m in
  let sim_events =
    match r.registry with
    | Some reg -> float_of_int (Engine.Metrics.count (Engine.Metrics.counter reg "sim_events_run"))
    | None -> 0.0
  in
  let calls = [ l.joins; l.leaves; l.crashes ] in
  let calls_s = List.fold_left (fun acc a -> acc +. a.Timing.total) 0.0 calls in
  let self_times =
    [
      ("maint.calls_s", calls_s);
      ("maint.staleness_s", l.staleness.Timing.total);
      ("sim.timer_s", s.run_s -. calls_s -. l.staleness.Timing.total);
    ]
  in
  Option.iter
    (fun c -> Chrome.aggregate c ~phase_start:start ~tid:3 "faults.perturb (bus channel)" l.channel)
    p.chrome;
  let ms_p50 a = Timing.p50_us a /. 1e3 in
  let sent = Bus.sent_count bus and delivered = Bus.delivered_count bus in
  let result =
    {
      Report.metrics =
        [
          ("topology.generate_s", r.topo.generate_s);
          ("topology.oracle_s", r.topo.oracle_s);
          ("store.rehost_ms", 1e3 *. rehost_s);
          ("probe.measurements", float_of_int s.measurements);
          ("maint.calls", float_of_int (List.fold_left (fun acc a -> acc + a.Timing.calls) 0 calls));
          ("maint.join_ms_p50", ms_p50 l.joins);
          ("maint.leave_ms_p50", ms_p50 l.leaves);
          ("maint.crash_ms_p50", ms_p50 l.crashes);
          ("maint.reselections", float_of_int (Maintenance.reselections r.m));
          ("maint.refreshes", float_of_int (Maintenance.refreshes r.m));
          ("sim.events", sim_events);
          ("bus.channel_calls", float_of_int l.channel.Timing.calls);
          ("bus.channel_s", l.channel.Timing.total);
          ("bus.sent", float_of_int sent);
          ("bus.delivered", float_of_int delivered);
          ("bus.dropped", float_of_int (Bus.dropped_count bus));
          ("bus.delivered_ratio", float_of_int delivered /. float_of_int (max 1 sent));
          ("trace.run_s", s.run_s);
          ("trace.untraced_run_s", plain.run_s);
          ("trace.overhead_frac", s.run_s /. plain.run_s);
        ]
        @ self_times @ s.gc
        @ Report.accounting ~run_s:s.run_s self_times;
      attempted = Timing.length s.ops + s.routes.attempted + List.length s.checks;
      failed =
        s.failed + s.routes.failed + Report.failures s.checks;
      checks =
        s.checks
        @ [ Report.check "traced storm replays the untraced one" (s.digest = plain.digest) "storm digests differ" ];
      digest = s.digest;
      notes = [];
    }
  in
  Maintenance.stop r.m;
  result
