(* Tests for the Koorde-style de Bruijn overlay.  The routing-reaches-
   owner and churn-invariant properties run over every backend, Koorde
   included, in test_conformance. *)

module Dbj = Koorde.Debruijn
module Rng = Prelude.Rng

let exact_selector ~node:_ ~arc:_ ~candidates:_ = None
let random_selector rng ~node:_ ~arc:_ ~candidates = Some (Rng.pick rng candidates)

let build ?(key_bits = 24) ?(degree = 2) ~n ~seed () =
  let rng = Rng.create seed in
  let t = Dbj.create ~key_bits ~degree () in
  for id = 0 to n - 1 do
    Dbj.add_node t ~rng id
  done;
  let sel = Rng.create (seed + 1) in
  Dbj.build_fingers t ~selector:(random_selector sel);
  (t, Rng.create (seed + 2))

(* Dense 8-node ring, key_bits = 3, degree = 2: node id i sits at key i,
   so every imaginary position p is hosted (charged) by node p-1 and
   owned by node p — hop sequences are hand-checkable. *)
let dense8 () =
  let t = Dbj.create ~key_bits:3 ~degree:2 () in
  for i = 0 to 7 do
    Dbj.add_node_at t i ~key:i
  done;
  Dbj.build_fingers t ~selector:exact_selector;
  t

let check_ok = function Ok () -> () | Error e -> Alcotest.fail e

let test_membership () =
  let t, _ = build ~n:50 ~seed:1 () in
  Alcotest.(check int) "size" 50 (Dbj.size t);
  Alcotest.(check bool) "member" true (Dbj.mem t 7);
  Alcotest.(check bool) "non-member" false (Dbj.mem t 99);
  Alcotest.(check int) "degree" 2 (Dbj.degree t)

let test_create_validation () =
  Alcotest.check_raises "odd degree"
    (Invalid_argument "Koorde.create: degree must be a power of two in [2,64]") (fun () ->
      ignore (Dbj.create ~degree:3 ()));
  Alcotest.check_raises "indivisible width"
    (Invalid_argument "Koorde.create: key_bits must be a multiple of log2 degree") (fun () ->
      ignore (Dbj.create ~key_bits:25 ~degree:4 ()))

let test_charge_vs_successor () =
  let t = dense8 () in
  (* owner of position p is node p; charge of p is its predecessor p-1 *)
  for p = 0 to 7 do
    Alcotest.(check int) "successor" p (Dbj.successor_node t p);
    Alcotest.(check int) "charge" ((p + 7) mod 8) (Dbj.charge_node t p)
  done

let test_cover_structure () =
  let t = dense8 () in
  (* node 0's domain is {1}; its image arc is [2,4) and the cover is the
     anchor (charge of 2 = node 1) plus the arc members 2 and 3 *)
  Alcotest.(check (pair int int)) "image arc" (2, 2) (Dbj.image_arc t 0);
  Alcotest.(check (array int)) "cover" [| 1; 2; 3 |] (Dbj.cover t 0);
  Alcotest.(check (option int)) "exact policy picks nothing" None (Dbj.preferred t 0)

(* Hand-computed imaginary-node walks on the dense ring (k = 2, so each
   hop doubles the register and feeds one bit of the key, top bit of the
   remaining suffix first; the start register is the position in the
   source's domain sharing the longest target prefix). *)
let test_hand_routes () =
  let t = dense8 () in
  let route src key = Dbj.route t ~src ~key in
  (* key 6 = 110b from node 0: start register 1 (= prefix "1"), feed
     "1" -> 3 (charge: node 2), feed "0" -> 6 (charge: node 5), then the
     owner hop to node 6 *)
  Alcotest.(check (option (list int))) "0 -> 6" (Some [ 0; 2; 5; 6 ]) (route 0 6);
  (* key 5 = 101b: register 1, "0" -> 2 (node 1), "1" -> 5 (node 4), owner 5 *)
  Alcotest.(check (option (list int))) "0 -> 5" (Some [ 0; 1; 4; 5 ]) (route 0 5);
  (* key 0 = 000b from node 1: register 2 (domain {2} agrees with the
     one-digit prefix "0"), feed "0" -> 4 (charge: node 3), feed
     "0" -> 0 (charge: node 7), then the owner hop wraps to node 0 *)
  Alcotest.(check (option (list int))) "1 -> 0" (Some [ 1; 3; 7; 0 ]) (route 1 0);
  (* adjacent key: pure owner hop, no digits *)
  Alcotest.(check (option (list int))) "0 -> 1" (Some [ 0; 1 ]) (route 0 1);
  (* self-owned key: no hops at all *)
  Alcotest.(check (option (list int))) "3 -> 3" (Some [ 3 ]) (route 3 3)

let test_preferred_entry_corrections () =
  (* Force every node to prefer its anchor: hops enter the image arc one
     node early and pay a successor correction before the next digit. *)
  let t = dense8 () in
  Dbj.build_fingers t ~selector:(fun ~node:_ ~arc:_ ~candidates -> Some candidates.(0));
  Alcotest.(check (option (list int)))
    "0 -> 6 via anchors" (Some [ 0; 1; 2; 5; 6 ])
    (Dbj.route t ~src:0 ~key:6);
  check_ok (Dbj.check_invariants t)

let test_invariants_random_build () =
  let t, _ = build ~n:64 ~seed:5 () in
  check_ok (Dbj.check_invariants t)

let test_remove_node () =
  let t, rng = build ~n:60 ~seed:10 () in
  let victims = Rng.sample rng 20 (Dbj.node_ids t) in
  Array.iter (fun id -> Dbj.remove_node t id) victims;
  Alcotest.(check int) "size" 40 (Dbj.size t);
  (* stale cover entries and preferred picks were cleared *)
  Array.iter
    (fun id ->
      Array.iter
        (fun c -> Alcotest.(check bool) "cover entry alive" true (Dbj.mem t c))
        (Dbj.cover t id);
      match Dbj.preferred t id with
      | Some p -> Alcotest.(check bool) "preferred alive" true (Dbj.mem t p)
      | None -> ())
    (Dbj.node_ids t);
  (* routing still reaches owners without a rebuild: charge fallback *)
  let ids = Dbj.node_ids t in
  for _ = 1 to 50 do
    let key = Rng.int rng (1 lsl Dbj.key_bits t) in
    match Dbj.route t ~src:(Rng.pick rng ids) ~key with
    | None -> Alcotest.fail "routing failed after removals"
    | Some hops ->
      Alcotest.(check int) "owner reached" (Dbj.successor_node t key)
        (List.nth hops (List.length hops - 1))
  done

let test_single_node () =
  let rng = Rng.create 11 in
  let t = Dbj.create () in
  Dbj.add_node t ~rng 42;
  Alcotest.(check int) "owns all keys" 42 (Dbj.successor_node t 12345);
  Alcotest.(check (option (list int))) "self route" (Some [ 42 ]) (Dbj.route t ~src:42 ~key:7)

let ceil_log ~base n =
  let rec go acc v = if v >= n then acc else go (acc + 1) (v * base) in
  go 0 1

let qcheck_hop_bound =
  (* With the exact-charge policy the imaginary walk feeds about
     log_k (ring / domain) digits; over random sources that averages to
     ceil(log_k N) + O(1), which is the constant-degree bound the backend
     advertises. *)
  QCheck.Test.make ~name:"koorde hop count is ceil(log_k n) + O(1) on average" ~count:25
    QCheck.(pair (int_range 0 1000) (int_range 8 96))
    (fun (seed, n) ->
      let degree = [| 2; 4; 8; 16 |].(seed mod 4) in
      let rng = Rng.create (seed + 3) in
      let t = Dbj.create ~degree () in
      for id = 0 to n - 1 do
        Dbj.add_node t ~rng id
      done;
      Dbj.build_fingers t ~selector:exact_selector;
      let ids = Dbj.node_ids t in
      let total = ref 0 in
      let routes = 32 in
      for _ = 1 to routes do
        let key = Rng.int rng (1 lsl Dbj.key_bits t) in
        match Dbj.route t ~src:(Rng.pick rng ids) ~key with
        | Some hops -> total := !total + List.length hops - 1
        | None -> QCheck.Test.fail_report "route failed"
      done;
      let mean = float_of_int !total /. float_of_int routes in
      mean <= float_of_int (ceil_log ~base:degree n) +. 4.0)

let suite =
  [
    Alcotest.test_case "membership" `Quick test_membership;
    Alcotest.test_case "create validation" `Quick test_create_validation;
    Alcotest.test_case "charge vs successor" `Quick test_charge_vs_successor;
    Alcotest.test_case "cover structure" `Quick test_cover_structure;
    Alcotest.test_case "hand-computed de Bruijn walks" `Quick test_hand_routes;
    Alcotest.test_case "preferred entry pays corrections" `Quick test_preferred_entry_corrections;
    Alcotest.test_case "invariants after random build" `Quick test_invariants_random_build;
    Alcotest.test_case "node removal" `Quick test_remove_node;
    Alcotest.test_case "single-node overlay" `Quick test_single_node;
    QCheck_alcotest.to_alcotest qcheck_hop_bound;
  ]
