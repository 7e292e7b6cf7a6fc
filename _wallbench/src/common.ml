(* What every workload shares: run parameters, seed derivation, the
   topology set-up, and the output checks that read the overlay from
   outside (table digests, routed samples, structural invariants). *)

module Ts = Topology.Transit_stub
module Oracle = Topology.Oracle
module Builder = Core.Builder
module Can_overlay = Can.Overlay
module Ecan_exp = Ecan.Expressway
module Store = Softstate.Store
module Rng = Prelude.Rng

type params = {
  seed : int;
  scale : int;  (** divides every workload size; 1 = the full benchmark *)
  seconds : float;  (** measured time to fill, beyond {!min_reps} *)
  chrome : Chrome.t option;  (** set on a traced run *)
}

(* Every workload repeats its timed unit at least [min_reps] times and
   reports the median repetition; set-up times are the median of
   [setup_reps] set-ups.  The repetitions cycle through [variants] input
   variants (membership samples, landmarks, streams, storms), all drawn
   from the workload seed, so that a run's figures do not hang on one
   sample: some samples cost half as much again as others. *)
let min_reps = 5
let setup_reps = 3
let variants = 5

(* Independent generator seeds for the parts of one run's inputs. *)
let sub_seed seed k = (seed * 1_000_003) + k

(* Seed of part [k] of variant [v]'s inputs. *)
let variant_seed p v k = sub_seed p.seed ((10 * v) + k)

let scaled p n ~floor = max floor (n / p.scale)

(* The domain pool every overlay is built on, pinned through
   [Builder.config.domains] instead of read from [TOPOAWARE_DOMAINS]:
   one domain, the library default. *)
let domains = 1

(* Repeat [rep] until at least [min_reps] ran and the measured seconds
   (the second component [rep] returns) reach [p.seconds]. *)
let repeat p rep =
  let rec go acc measured n =
    if n >= min_reps && measured >= p.seconds then List.rev acc
    else
      let r, s = rep n in
      go (r :: acc) (measured +. s) (n + 1)
  in
  go [] 0.0 0

let median_of f l = Timing.median (Array.of_list (List.map f l))
let mean_of f l = Timing.mean (Array.of_list (List.map f l))

(* Repetition [i] ran variant [i mod n]: the repetitions of each variant. *)
let by_variant n reps =
  List.init (min n (List.length reps)) (fun v -> List.filteri (fun i _ -> i mod n = v) reps)

(* Every repetition of a variant reproduces its first one's [key]. *)
let replays_match key groups =
  List.for_all (function [] -> true | r :: rest -> List.for_all (fun x -> key x = key r) rest) groups

let phase p name f =
  match p.chrome with
  | None -> f ()
  | Some c -> Chrome.with_span c ~cat:"phase" ~tid:1 name f

(* The physical network: the full GT-ITM tsk-large transit-stub topology
   (10,032 routers at scale 1) and its exact distance oracle.  Like the
   repository's experiments, every run uses the same network (the
   experiments' fixed topology seed, repeated here because
   [Workload.Ctx.oracle] memoises its oracle, which would leave no
   set-up to time); the workload seed drives everything placed on it. *)
type topo = { oracle : Oracle.t; generate_s : float; oracle_s : float }

let topology_seed = 20030519

let topology p =
  let params = Ts.tsk_large ~scale:p.scale () in
  let t, generate_s = Timing.time (fun () -> Ts.generate (Rng.create topology_seed) params) in
  let oracle, oracle_s = Timing.time (fun () -> Oracle.build t) in
  { oracle; generate_s; oracle_s }

(* Table 2 defaults (2-d eCAN, span 2, hybrid selection with 10 RTTs,
   15 landmarks) at the given size, on the pinned pool. *)
let build_config p ~members ~variant ~k =
  { Builder.default_config with
    Builder.overlay_size = members;
    domains;
    seed = variant_seed p variant k }

(* ------------------------------------------------------------------ *)
(* Output checks                                                       *)
(* ------------------------------------------------------------------ *)

(* Digest of every member's expressway table, in member-id order. *)
let table_digest (b : Builder.t) =
  let ids = Array.copy (Can_overlay.node_ids (Ecan_exp.can b.Builder.ecan)) in
  Array.sort compare ids;
  let buf = Buffer.create (1 lsl 16) in
  Array.iter
    (fun id ->
      Printf.bprintf buf "%d" id;
      List.iter
        (fun (r, d, t) -> Printf.bprintf buf ",%d:%d:%d" r d t)
        (List.sort compare (Ecan_exp.entries b.Builder.ecan id));
      Buffer.add_char buf ';')
    ids;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* [can:false] skips the CAN checker, which compares every pair of
   zones: O(n^2), about 17 s at 8,192 members. *)
let invariants ?(can = true) p (b : Builder.t) =
  let run name f = (name, phase p name f) in
  (if can then
     [ run "can invariants" (fun () -> Can_overlay.check_invariants (Ecan_exp.can b.Builder.ecan)) ]
   else [])
  @ [ run "store invariants" (fun () -> Store.check_invariants b.Builder.store) ]

type routes = {
  attempted : int;
  failed : int;  (** routes that did not end at their destination *)
  lat_s : Timing.samples;  (** wall-clock per route call *)
  stretch_mean : float;
  delivered_p50_ms : float;  (** physical latency of the delivered routes *)
  hops_mean : float;
}

(* Route [pairs] source/destination pairs among the current members over
   the eCAN, timing each call.  The pairs are drawn from a copy of the
   builder's generator exactly as [Core.Measure.route_stretch] draws
   them, so the two stretch means can be compared. *)
let sample_routes ?acc (b : Builder.t) ~pairs =
  let can = Ecan_exp.can b.Builder.ecan in
  let ids = Can_overlay.node_ids can in
  let rng = Rng.copy b.Builder.rng in
  let lat_s = Timing.samples () in
  let stretches = Timing.samples () and latencies = Timing.samples () and hops = Timing.samples () in
  let failed = ref 0 in
  for _ = 1 to pairs do
    let src = Rng.pick rng ids in
    let rec draw () =
      let d = Rng.pick rng ids in
      if d = src then draw () else d
    in
    let dst = draw () in
    let target = Geometry.Zone.center (Can_overlay.node can dst).Can_overlay.zone in
    let t0 = Timing.now () in
    let route = Ecan_exp.route b.Builder.ecan ~src target in
    let d = Timing.now () -. t0 in
    Timing.add lat_s d;
    Option.iter (fun a -> Timing.record a d) acc;
    match route with
    | Some (_ :: _ as path) when List.nth path (List.length path - 1) = dst ->
      let latency = Core.Measure.path_latency b.Builder.oracle path in
      let shortest = Oracle.dist b.Builder.oracle src dst in
      Timing.add latencies latency;
      Timing.add hops (float_of_int (List.length path - 1));
      if shortest > 0.0 then Timing.add stretches (latency /. shortest)
    | _ -> incr failed
  done;
  {
    attempted = pairs;
    failed = !failed;
    lat_s;
    stretch_mean = Timing.mean (Timing.to_array stretches);
    delivered_p50_ms = Timing.median (Timing.to_array latencies);
    hops_mean = Timing.mean (Timing.to_array hops);
  }

let route_check r =
  Report.check "every sampled route reaches its destination" (r.failed = 0)
    (Printf.sprintf "%d of %d routes missed" r.failed r.attempted)

(* The same pairs through [Core.Measure]: its stretch must agree. *)
let measure_agrees (b : Builder.t) (r : routes) =
  let m =
    (Core.Measure.route_stretch ~pairs:r.attempted b).Core.Measure.stretch.Prelude.Stats.mean
  in
  let ok = Float.abs (m -. r.stretch_mean) <= 1e-9 *. Float.abs m in
  ( "route stretch agrees with Core.Measure",
    if ok then Ok () else Error (Printf.sprintf "Measure %.12g vs sampled %.12g" m r.stretch_mean) )

(* Latency percentiles of a workload's operations, given the
   repetitions of each variant.  The repetitions of a variant replay the
   same operations, so each operation is taken at its median time over
   them; the percentiles are read over a variant's operations, and the
   reported value is their median over the variants.  (Repetitions of
   different lengths would mean the replay diverged; the replay checks
   then fail, and the variant's first repetition is used.) *)
let op_latency groups =
  let per_variant =
    List.map
      (fun reps ->
        let arrays = List.map Timing.to_array reps in
        let first = List.hd arrays in
        let n = Array.length first in
        if List.for_all (fun a -> Array.length a = n) arrays then
          Array.init n (fun i -> Timing.median (Array.of_list (List.map (fun a -> a.(i)) arrays)))
        else first)
      groups
  in
  let n = List.fold_left (fun acc a -> min acc (Array.length a)) max_int per_variant in
  let tail = Timing.tail_pct n in
  ( 1e6 *. median_of Timing.median per_variant,
    1e6 *. median_of (fun a -> Timing.percentile a tail) per_variant,
    Printf.sprintf
      "op_tail_us is %s of the %d ops of a variant (each at its median over the variant's repetitions), median of %d variants"
      (Timing.pct_name tail) n (List.length per_variant) )
