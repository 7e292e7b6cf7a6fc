(* Tests for the CAN overlay: joins, zone invariants, routing, leaves. *)

module Can_overlay = Can.Overlay
module Point = Geometry.Point
module Zone = Geometry.Zone
module Rng = Prelude.Rng

let check_ok = function
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let build ~dims ~n ~seed =
  let rng = Rng.create seed in
  let t = Can_overlay.random ~dims rng n in
  (t, rng)

let test_single_node () =
  let t = Can_overlay.create ~dims:2 7 in
  Alcotest.(check int) "size" 1 (Can_overlay.size t);
  Alcotest.(check bool) "owns everything" true
    (Zone.equal (Can_overlay.node t 7).Can_overlay.zone (Zone.full 2));
  Alcotest.(check int) "owner of any point" 7 (Can_overlay.owner_of t [| 0.9; 0.1 |]);
  check_ok (Can_overlay.check_invariants t);
  Alcotest.check_raises "random needs a member"
    (Invalid_argument "Can.random: need at least one member") (fun () ->
      ignore (Can_overlay.random ~dims:2 (Rng.create 1) 0))

let test_first_split () =
  let t = Can_overlay.create ~dims:2 0 in
  ignore (Can_overlay.join t 1 [| 0.75; 0.5 |]);
  (* Split along dim 0: node 1 (point in upper half) takes [0.5,1). *)
  let z1 = (Can_overlay.node t 1).Can_overlay.zone in
  Alcotest.(check bool) "newcomer owns its point" true (Zone.contains z1 [| 0.75; 0.5 |]);
  Alcotest.(check (float 1e-12)) "half volume" 0.5 (Zone.volume z1);
  Alcotest.(check (list int)) "neighbors" [ 1 ] (Can_overlay.node t 0).Can_overlay.neighbors;
  check_ok (Can_overlay.check_invariants t)

let test_join_invariants_many () =
  let t, _ = build ~dims:2 ~n:120 ~seed:42 in
  Alcotest.(check int) "size" 120 (Can_overlay.size t);
  check_ok (Can_overlay.check_invariants t)

let test_join_invariants_3d () =
  let t, _ = build ~dims:3 ~n:80 ~seed:43 in
  check_ok (Can_overlay.check_invariants t)

let test_join_rejects_duplicate () =
  let t, _ = build ~dims:2 ~n:5 ~seed:1 in
  Alcotest.check_raises "duplicate id" (Invalid_argument "Can.join: node already a member")
    (fun () -> ignore (Can_overlay.join t 3 [| 0.5; 0.5 |]))

let test_owner_of_agrees_with_zones () =
  let t, rng = build ~dims:2 ~n:100 ~seed:44 in
  for _ = 1 to 300 do
    let p = Point.random rng 2 in
    let owner = Can_overlay.owner_of t p in
    Alcotest.(check bool) "owner zone contains point" true
      (Zone.contains (Can_overlay.node t owner).Can_overlay.zone p)
  done

let test_route_reaches_owner () =
  let t, rng = build ~dims:2 ~n:150 ~seed:45 in
  let ids = Can_overlay.node_ids t in
  for _ = 1 to 200 do
    let src = Rng.pick rng ids in
    let p = Point.random rng 2 in
    match Can_overlay.route t ~src p with
    | None -> Alcotest.fail "routing failed"
    | Some hops ->
      Alcotest.(check int) "starts at src" src (List.hd hops);
      let dst = List.nth hops (List.length hops - 1) in
      Alcotest.(check int) "ends at owner" (Can_overlay.owner_of t p) dst;
      (* consecutive hops are CAN neighbors *)
      let rec check_links = function
        | a :: (b :: _ as rest) ->
          Alcotest.(check bool) "hop uses a link" true
            (List.mem b (Can_overlay.node t a).Can_overlay.neighbors);
          check_links rest
        | _ -> ()
      in
      check_links hops
  done

let test_route_from_owner_is_trivial () =
  let t, _ = build ~dims:2 ~n:50 ~seed:46 in
  let p = [| 0.3; 0.3 |] in
  let owner = Can_overlay.owner_of t p in
  Alcotest.(check (option (list int))) "single hop" (Some [ owner ])
    (Can_overlay.route t ~src:owner p)

let test_path_of_point () =
  let t = Can_overlay.create ~dims:2 0 in
  let bits = Can_overlay.path_of_point t ~depth:4 [| 0.8; 0.2 |] in
  (* dim0: 0.8 -> upper (1); dim1: 0.2 -> lower (0);
     dim0 within [0.5,1): 0.8 -> [0.75..): upper (1); dim1 within [0,0.5): 0.2 lower (0). *)
  Alcotest.(check (array int)) "bits" [| 1; 0; 1; 0 |] bits

let test_zone_of_path_roundtrip () =
  let rng = Rng.create 48 in
  let t = Can_overlay.create ~dims:2 0 in
  for _ = 1 to 100 do
    let p = Point.random rng 2 in
    let bits = Can_overlay.path_of_point t ~depth:10 p in
    let z = Can_overlay.zone_of_path ~dims:2 bits in
    Alcotest.(check bool) "zone of path contains point" true (Zone.contains z p)
  done

let test_members_with_prefix () =
  let t, _ = build ~dims:2 ~n:64 ~seed:49 in
  let all = Can_overlay.members_with_prefix t [||] in
  Alcotest.(check int) "root prefix has everyone" 64 (Array.length all);
  let left = Can_overlay.members_with_prefix t [| 0 |] in
  let right = Can_overlay.members_with_prefix t [| 1 |] in
  Alcotest.(check int) "halves partition the membership" 64
    (Array.length left + Array.length right);
  Array.iter
    (fun id ->
      let n = Can_overlay.node t id in
      Alcotest.(check int) "left members have bit 0" 0 n.Can_overlay.path.(0))
    left

let test_leave_simple () =
  let t = Can_overlay.create ~dims:2 0 in
  ignore (Can_overlay.join t 1 [| 0.75; 0.5 |]);
  ignore (Can_overlay.leave t 1);
  Alcotest.(check int) "size" 1 (Can_overlay.size t);
  Alcotest.(check bool) "survivor owns everything" true
    (Zone.equal (Can_overlay.node t 0).Can_overlay.zone (Zone.full 2));
  check_ok (Can_overlay.check_invariants t)

let test_leave_many () =
  let t, rng = build ~dims:2 ~n:80 ~seed:50 in
  let ids = Array.to_list (Can_overlay.node_ids t) in
  let to_remove = Prelude.Rng.sample rng 40 (Array.of_list ids) in
  Array.iter
    (fun id ->
      ignore (Can_overlay.leave t id);
      Alcotest.(check bool) "membership dropped" false (Can_overlay.mem t id))
    to_remove;
  Alcotest.(check int) "size" 40 (Can_overlay.size t);
  check_ok (Can_overlay.check_invariants t)

let test_leave_everyone () =
  let t, _ = build ~dims:2 ~n:20 ~seed:51 in
  let ids = Can_overlay.node_ids t in
  Array.iteri
    (fun i id ->
      if i < Array.length ids - 1 then begin
        ignore (Can_overlay.leave t id);
        check_ok (Can_overlay.check_invariants t)
      end)
    ids;
  Alcotest.(check int) "one left" 1 (Can_overlay.size t)

let test_churn_interleaved () =
  let rng = Rng.create 52 in
  let t = Can_overlay.create ~dims:2 0 in
  let next_id = ref 1 in
  let members = ref [ 0 ] in
  for _ = 1 to 300 do
    if List.length !members < 3 || Rng.chance rng 0.6 then begin
      let id = !next_id in
      incr next_id;
      ignore (Can_overlay.join t id (Point.random rng 2));
      members := id :: !members
    end
    else begin
      let arr = Array.of_list !members in
      let victim = Rng.pick rng arr in
      ignore (Can_overlay.leave t victim);
      members := List.filter (fun m -> m <> victim) !members
    end
  done;
  Alcotest.(check int) "tracked membership" (List.length !members) (Can_overlay.size t);
  check_ok (Can_overlay.check_invariants t)

(* Generic hop-bound and churn-invariant properties live in the shared
   backend-conformance suite (test_conformance.ml); the remaining route
   test here asserts the CAN-specific neighbor-link structure. *)
let suite =
  [
    Alcotest.test_case "single node" `Quick test_single_node;
    Alcotest.test_case "first split" `Quick test_first_split;
    Alcotest.test_case "many joins keep invariants" `Quick test_join_invariants_many;
    Alcotest.test_case "3-d joins keep invariants" `Quick test_join_invariants_3d;
    Alcotest.test_case "duplicate join rejected" `Quick test_join_rejects_duplicate;
    Alcotest.test_case "owner_of agrees with zones" `Quick test_owner_of_agrees_with_zones;
    Alcotest.test_case "routing reaches the owner" `Quick test_route_reaches_owner;
    Alcotest.test_case "routing from owner" `Quick test_route_from_owner_is_trivial;
    Alcotest.test_case "path of point" `Quick test_path_of_point;
    Alcotest.test_case "zone of path contains point" `Quick test_zone_of_path_roundtrip;
    Alcotest.test_case "prefix membership" `Quick test_members_with_prefix;
    Alcotest.test_case "leave (pair)" `Quick test_leave_simple;
    Alcotest.test_case "leave (many)" `Quick test_leave_many;
    Alcotest.test_case "leave everyone" `Quick test_leave_everyone;
    Alcotest.test_case "interleaved churn" `Slow test_churn_interleaved;
  ]
