(* Workload [serve]: a closed loop — one in-process client, no think
   time — over a 4,096-member hybrid eCAN built during set-up.  The
   stream is Zipf s = 0.9 over 4,096 keys from 512 client members, served
   through [Engine.Cache] (3 replicas, load threshold 2,048, RTT ranking
   through the probe plane with its RTT cache on, virtual clock advanced
   per round).  One op in ten is instead a Table 1 nearest-candidate
   query: [Store.lookup] in the client's region, then [Probe.run_batch]
   over the top 10.

   The stream is cut into blocks of a fixed schedule.  Each block starts
   from a fresh cache and prober and from zeroed map loads, so every
   block does the same work and must produce the same outcomes. *)

open Common
module Cache = Engine.Cache
module Probe = Engine.Probe
module Zone = Geometry.Zone

let members p = scaled p 4096 ~floor:64
let clients p = min (members p) (scaled p 512 ~floor:16)
let keys p = scaled p 4096 ~floor:64
let block_rounds p = scaled p 256 ~floor:16
let threshold p = scaled p 2048 ~floor:16
let round_ms = 100.0
let cycle_rounds = 16
let online_rounds = 8 (* of every [cycle_rounds]: a 50% duty cycle *)
let probe_cache_ttl = 600_000.0
let query_every = 10
let query_probes = 10

type op = Request of { round : int; client : int; key : int } | Query of { round : int; client : int }

(* Each client gets a seeded phase in its on/off cycle; every online
   (round, client) slot issues one op, in (round, client) order. *)
let schedule p ~variant =
  let zipf = Prelude.Zipf.create ~s:0.9 (keys p) in
  let rng = Rng.create (variant_seed p variant 7) in
  let clients = clients p in
  let phase = Array.init clients (fun _ -> Rng.int rng cycle_rounds) in
  let ops = ref [] and k = ref 0 in
  for round = 0 to block_rounds p - 1 do
    for client = 0 to clients - 1 do
      if (round + phase.(client)) mod cycle_rounds < online_rounds then begin
        incr k;
        ops :=
          (if !k mod query_every = 0 then Query { round; client }
           else Request { round; client; key = Prelude.Zipf.sample zipf rng })
          :: !ops
      end
    done
  done;
  Array.of_list (List.rev !ops)

(* SplitMix64 finalizer: spreads key ids uniformly over the key space. *)
let mix62 k =
  let z = Int64.add (Int64.of_int k) 0x9E3779B97F4A7C15L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.to_int (Int64.shift_right_logical (Int64.logxor z (Int64.shift_right_logical z 31)) 2)

(* Per-layer accumulators of a traced block. *)
type layers = {
  requests : Timing.acc;
  home : Timing.acc;
  route : Timing.acc;
  near : Timing.acc;
  publish_load : Timing.acc;
  rtt : Timing.acc;
  lookup : Timing.acc;
  batch : Timing.acc;
}

let layers () =
  let a = Timing.acc in
  { requests = a (); home = a (); route = a (); near = a (); publish_load = a (); rtt = a ();
    lookup = a (); batch = a () }

(* The cache's backend over the builder's eCAN: homes by CAN zone
   ownership of the key's hashed point, replica placement by a
   root-region map lookup that skips loaded hosts. *)
let backend (b : Builder.t) =
  let can = Ecan_exp.can b.Builder.ecan and store = b.Builder.store in
  let point_of_key key =
    let h = mix62 key in
    [| float_of_int (h land 0x3FFFFFFF) /. 1073741824.0;
       float_of_int ((h lsr 30) land 0x3FFFFFFF) /. 1073741824.0 |]
  in
  {
    Cache.name = "ecan";
    member = (fun node -> Can_overlay.mem can node);
    home_of = (fun key -> Can_overlay.owner_of can (point_of_key key));
    route_to =
      (fun ~src ~dst ->
        Ecan_exp.route b.Builder.ecan ~src (Zone.center (Can_overlay.node can dst).Can_overlay.zone));
    near =
      (fun ~node ~exclude ->
        Store.lookup store ~region:[||] ~vector:(Builder.vector_of b node) ~max_results:12 ~ttl:2
          ~max_load:0.99 ()
        |> List.find_map (fun (e : Store.Entry.t) ->
               let c = e.Store.Entry.node in
               if c <> node && (not (List.mem c exclude)) && Can_overlay.mem can c then Some c
               else None));
    publish_load =
      (fun ~node ~load ->
        List.iter
          (fun region -> Store.update_stats store ~region ~node ~load ~capacity:1.0)
          (Store.regions_of store node));
  }

(* The same backend with every callback timed into its layer. *)
let timed_backend (l : layers) (k : Cache.backend) =
  let open Timing in
  {
    k with
    Cache.member = (fun node -> timed l.home (fun () -> k.Cache.member node));
    home_of = (fun key -> timed l.home (fun () -> k.Cache.home_of key));
    route_to = (fun ~src ~dst -> timed l.route (fun () -> k.Cache.route_to ~src ~dst));
    near = (fun ~node ~exclude -> timed l.near (fun () -> k.Cache.near ~node ~exclude));
    publish_load = (fun ~node ~load -> timed l.publish_load (fun () -> k.Cache.publish_load ~node ~load));
  }

let reset_loads (b : Builder.t) =
  Array.iter
    (fun node ->
      List.iter
        (fun region -> Store.update_stats b.Builder.store ~region ~node ~load:0.0 ~capacity:1.0)
        (Store.regions_of b.Builder.store node))
    b.Builder.members

type block = {
  block_s : float;
  ops : int;
  lat_s : Timing.samples;  (** wall-clock per cache request *)
  failed : int;
  digest : int;  (** hash of every op's outcome, in order *)
  delivered_p50_ms : float;
  hops_mean : float;
  measurements : int;
  hits : int;
  requests : int;
  replications : int;
  probe_hits : int;
  probe_lookups : int;
  invariant : (unit, string) result;
  gc : (string * float) list;
}

let mix h x = (h lxor x) * 0x100000001b3 land max_int

(* Serve one block of the schedule; [traced] times every layer call. *)
let run_block p ~traced (l : layers) (b : Builder.t) ops =
  let timed a f = if traced then Timing.timed a f else f () in
  reset_loads b;
  let can = Ecan_exp.can b.Builder.ecan in
  let span_bits = b.Builder.config.Builder.span_bits in
  let attach = b.Builder.members in
  let now = ref 0.0 in
  let clock () = !now in
  let prober =
    Probe.create ~clock ~config:{ Probe.default_config with Probe.cache_ttl = probe_cache_ttl }
      ~measure:(Oracle.measure b.Builder.oracle) ()
  in
  let rtt ~src ~dst = match Probe.rtt prober ~src ~dst with Ok r -> Some r | Error _ -> None in
  let rtt = if traced then fun ~src ~dst -> Timing.timed l.rtt (fun () -> rtt ~src ~dst) else rtt in
  let backend = if traced then timed_backend l (backend b) else backend b in
  let cache =
    Cache.create ~clock ~rtt
      ~config:{ Cache.default_config with Cache.replicas = 3; load_threshold = threshold p; hot_keys = 4 }
      ~link:(Oracle.dist b.Builder.oracle) backend
  in
  let nearest client =
    let path = (Can_overlay.node can client).Can_overlay.path in
    let region = Array.sub path 0 (min span_bits (Array.length path)) in
    let entries =
      timed l.lookup (fun () ->
          Store.lookup b.Builder.store ~region ~vector:(Builder.vector_of b client) ~max_results:16 ~ttl:2 ())
    in
    let dsts =
      List.filter (fun (e : Store.Entry.t) -> e.Store.Entry.node <> client) entries
      |> List.filteri (fun i _ -> i < query_probes)
      |> List.map (fun (e : Store.Entry.t) -> e.Store.Entry.node)
      |> Array.of_list
    in
    if Array.length dsts = 0 then -1
    else begin
      let batch = timed l.batch (fun () -> Probe.run_batch prober ~src:client ~dsts) in
      let best = ref (-1) and best_rtt = ref infinity in
      Array.iteri
        (fun i r -> match r with Ok x when x < !best_rtt -> best := dsts.(i); best_rtt := x | _ -> ())
        batch.Probe.results;
      !best
    end
  in
  let lat_s = Timing.samples () and delivered = Timing.samples () in
  let failed = ref 0 and digest = ref 0 and hops = ref 0 in
  let m0 = Oracle.measurements b.Builder.oracle in
  let gc0 = Gc.quick_stat () in
  let t0 = Timing.now () in
  Array.iter
    (function
      | Request { round; client; key } ->
        now := float_of_int round *. round_ms;
        let s = Timing.now () in
        (match timed l.requests (fun () -> Cache.request cache ~client:attach.(client) ~key) with
        | o ->
          Timing.add lat_s (Timing.now () -. s);
          digest := mix (mix (mix !digest o.Cache.served_by) o.Cache.hops) (Bool.to_int o.Cache.hit);
          hops := !hops + o.Cache.hops;
          Timing.add delivered o.Cache.latency
        | exception _ -> incr failed)
      | Query { round; client } ->
        now := float_of_int round *. round_ms;
        (match nearest attach.(client) with
        | n -> digest := mix !digest n
        | exception _ -> incr failed))
    ops;
  let block_s = Timing.now () -. t0 in
  let gc = Timing.gc_delta gc0 (Gc.quick_stat ()) in
  let requests = Cache.requests cache in
  {
    block_s;
    ops = Array.length ops;
    lat_s;
    failed = !failed;
    digest = mix !digest (Int64.to_int (Int64.bits_of_float (Timing.sum delivered)));
    delivered_p50_ms = Timing.median (Timing.to_array delivered);
    hops_mean = float_of_int !hops /. float_of_int (max 1 requests);
    measurements = Oracle.measurements b.Builder.oracle - m0;
    hits = Cache.hits cache;
    requests;
    replications = Cache.replications cache;
    probe_hits = Probe.cache_hits prober;
    probe_lookups = Probe.cache_hits prober + Probe.cache_misses prober;
    invariant = Cache.check_invariants cache;
    gc;
  }

(* Set-up: topology, oracle and the served overlay of a variant. *)
let setup p ~variant =
  let topo = topology p in
  let b, build_s =
    Timing.time (fun () -> Builder.build topo.oracle (build_config p ~members:(members p) ~variant ~k:3))
  in
  (topo, b, topo.generate_s +. topo.oracle_s +. build_s)

(* One overlay per variant; each serves its own stream for an equal
   share of the measured seconds. *)
let overlays = variants

type served = {
  setup_s : float;
  routes : routes;
  checks : (string * (unit, string) result) list;
  blocks : block list;
}

let serve_overlay p ~variant =
  let _, b, setup_s = phase p "setup" (fun () -> setup p ~variant) in
  let routes = sample_routes b ~pairs:(2 * Array.length b.Builder.members) in
  (* The CAN checker is O(n^2); the traced run applies it. *)
  let checks = route_check routes :: invariants ~can:false p b in
  let ops = schedule p ~variant in
  let l = layers () in
  Gc.compact ();
  let blocks =
    phase p "serve" (fun () ->
        repeat { p with seconds = p.seconds /. float_of_int overlays } (fun _ ->
            let blk = run_block p ~traced:false l b ops in
            (blk, blk.block_s)))
  in
  let first = List.hd blocks in
  let same = List.for_all (fun k -> k.digest = first.digest && k.measurements = first.measurements) blocks in
  {
    setup_s;
    routes;
    blocks;
    checks =
      checks
      @ List.map (fun k -> ("cache invariants", k.invariant)) blocks
      @ [ Report.check "every block of an overlay serves the same outcomes" same "block digests differ" ];
  }

let untraced p =
  let served = List.init overlays (fun variant -> serve_overlay p ~variant) in
  let blocks = List.concat_map (fun s -> s.blocks) served in
  let firsts = List.map (fun s -> List.hd s.blocks) served in
  let op_p50, op_tail, tail_note = op_latency (List.map (fun s -> List.map (fun k -> k.lat_s) s.blocks) served) in
  let mean f = mean_of f firsts in
  {
    Report.metrics =
      [
        ("setup_s", median_of (fun s -> s.setup_s) served);
        ("run_s", median_of (fun k -> k.block_s) blocks);
        ("ops_per_s", median_of (fun k -> float_of_int k.ops /. k.block_s) blocks);
        ("op_p50_us", op_p50);
        ("op_tail_us", op_tail);
        ("peak_rss_mb", Timing.peak_rss_mb ());
        ("stretch_mean", mean_of (fun s -> s.routes.stretch_mean) served);
        ("delivered_p50_ms", mean (fun k -> k.delivered_p50_ms));
        ("probes_per_member", mean (fun k -> float_of_int k.measurements) /. float_of_int (members p));
        ("msgs_per_event", mean (fun k -> k.hops_mean));
      ];
    attempted =
      List.fold_left (fun acc s -> acc + s.routes.attempted + List.length s.checks) 0 served
      + List.fold_left (fun acc k -> acc + k.ops) 0 blocks;
    failed =
      List.fold_left (fun acc s -> acc + s.routes.failed + Report.failures s.checks) 0 served
      + List.fold_left (fun acc k -> acc + k.failed) 0 blocks;
    checks = List.concat_map (fun s -> s.checks) served;
    digest = String.concat "" (List.map (fun k -> Printf.sprintf "%016x" k.digest) firsts);
    notes =
      [
        Printf.sprintf
          "serve: %d members, %d clients, ~%d ops per block (1 in %d a nearest-candidate query), %d blocks over %d overlays; run_s is one block"
          (members p) (clients p) (List.hd firsts).ops query_every (List.length blocks) overlays;
        Printf.sprintf "serve: cache hit ratio %.4f, %.1f replications per block"
          (mean (fun k -> float_of_int k.hits /. float_of_int (max 1 k.requests)))
          (mean (fun k -> float_of_int k.replications));
        tail_note;
        "run_s repetitions: " ^ String.concat " " (List.map (fun k -> Printf.sprintf "%.3f" k.block_s) blocks);
      ];
  }

let traced p =
  let chrome = Option.get p.chrome in
  let topo, b, _ = phase p "setup" (fun () -> setup p ~variant:0) in
  let ops = schedule p ~variant:0 in
  Gc.compact ();
  let plain = phase p "untraced block" (fun () -> run_block p ~traced:false (layers ()) b ops) in
  Gc.compact ();
  let l = layers () in
  let start = Timing.now () in
  let blk = phase p "traced block" (fun () -> run_block p ~traced:true l b ops) in
  let (), rehost_s = Timing.time (fun () -> Store.rehost b.Builder.store) in
  List.iteri
    (fun i (name, a) -> Chrome.aggregate chrome ~phase_start:start ~tid:(3 + i) name a)
    [
      ("cache.request", l.requests);
      ("can.mem/owner_of", l.home);
      ("ecan.route", l.route);
      ("cache.near", l.near);
      ("cache.publish_load", l.publish_load);
      ("probe.rtt", l.rtt);
      ("store.lookup", l.lookup);
      ("probe.run_batch", l.batch);
    ];
  let callbacks = List.fold_left (fun acc a -> acc +. a.Timing.total) 0.0 [ l.home; l.route; l.near; l.publish_load; l.rtt ] in
  let self_times =
    [
      ("can.home_of_s", l.home.Timing.total);
      ("ecan.route_s", l.route.Timing.total);
      ("cache.near_s", l.near.Timing.total);
      ("cache.publish_load_s", l.publish_load.Timing.total);
      ("probe.rtt_s", l.rtt.Timing.total);
      ("cache.self_s", l.requests.Timing.total -. callbacks);
      ("store.lookup_s", l.lookup.Timing.total);
      ("probe.batch_s", l.batch.Timing.total);
    ]
  in
  let checks =
    invariants p b
    @ [
      ("cache invariants", blk.invariant);
      Report.check "traced block serves the same outcomes as the untraced one" (blk.digest = plain.digest)
        "digests differ";
    ]
  in
  {
    Report.metrics =
      [
        ("topology.generate_s", topo.generate_s);
        ("topology.oracle_s", topo.oracle_s);
        ("store.lookup_calls", float_of_int l.lookup.Timing.calls);
        ("store.lookup_us_p50", Timing.p50_us l.lookup);
        ("store.lookup_us_tail", Timing.tail_us l.lookup);
        ("store.rehost_ms", 1e3 *. rehost_s);
        ("ecan.route_calls", float_of_int l.route.Timing.calls);
        ("ecan.route_us_p50", Timing.p50_us l.route);
        ("ecan.route_hops_mean", blk.hops_mean);
        ("probe.batch_calls", float_of_int l.batch.Timing.calls);
        ("probe.rtt_calls", float_of_int l.rtt.Timing.calls);
        ("probe.cache_lookups", float_of_int blk.probe_lookups);
        ("probe.cache_hit_ratio", float_of_int blk.probe_hits /. float_of_int (max 1 blk.probe_lookups));
        ("probe.measurements", float_of_int blk.measurements);
        ("cache.requests", float_of_int blk.requests);
        ("cache.hit_ratio", float_of_int blk.hits /. float_of_int (max 1 blk.requests));
        ("cache.replications", float_of_int blk.replications);
        ("cache.near_calls", float_of_int l.near.Timing.calls);
        ("trace.run_s", blk.block_s);
        ("trace.untraced_run_s", plain.block_s);
        ("trace.overhead_frac", blk.block_s /. plain.block_s);
      ]
      @ self_times @ blk.gc
      @ Report.accounting ~run_s:blk.block_s self_times;
    attempted = blk.ops + plain.ops + List.length checks;
    failed =
      blk.failed + plain.failed + Report.failures checks;
    checks;
    digest = Printf.sprintf "%016x" blk.digest;
    notes = [];
  }
