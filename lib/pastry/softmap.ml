module Number = Landmark.Number
module Landmarks = Landmark.Landmarks
module Multimap = Prelude.Multimap

type entry = {
  node : int;
  vector : float array;
  number : int;
  store_id : int;
}

type region_map = { prefix : int array; entries : (int, entry) Hashtbl.t }

type t = {
  mesh : Mesh.t;
  scheme : Number.scheme;
  maps : (int, region_map) Hashtbl.t;  (* region key *)
  by_host : entry Multimap.t;
}

let region_key t prefix =
  let value = Array.fold_left (fun acc d -> (acc lsl Mesh.digit_bits t.mesh) lor d) 0 prefix in
  (Array.length prefix lsl 52) lor value

let create ~scheme mesh = { mesh; scheme; maps = Hashtbl.create 64; by_host = Multimap.create 64 }

let store_id_of t ~prefix vector =
  let digit_bits = Mesh.digit_bits t.mesh in
  let num_digits = Mesh.num_digits t.mesh in
  let len = Array.length prefix in
  if len > num_digits then invalid_arg "Pastry.Softmap.store_id_of: prefix too long";
  let tail_bits = (num_digits - len) * digit_bits in
  let u = Number.to_unit t.scheme (Number.number t.scheme vector) in
  let tail =
    if tail_bits = 0 then 0
    else begin
      let cells = 1 lsl tail_bits in
      let c = int_of_float (u *. float_of_int cells) in
      if c >= cells then cells - 1 else c
    end
  in
  let head = Array.fold_left (fun acc d -> (acc lsl digit_bits) lor d) 0 prefix in
  (head lsl tail_bits) lor tail

let host_of t store_id = Mesh.owner_of t.mesh store_id

let host_add t e = Multimap.add t.by_host (host_of t e.store_id) e
let host_remove t e = Multimap.remove t.by_host (host_of t e.store_id) (fun x -> x == e)

let map_for t prefix =
  let key = region_key t prefix in
  match Hashtbl.find_opt t.maps key with
  | Some m -> m
  | None ->
    let m = { prefix = Array.copy prefix; entries = Hashtbl.create 8 } in
    Hashtbl.replace t.maps key m;
    m

let publish t ~prefix ~node ~vector =
  if Mesh.size t.mesh = 0 then invalid_arg "Pastry.Softmap.publish: empty mesh";
  let m = map_for t prefix in
  (match Hashtbl.find_opt m.entries node with
  | Some old ->
    Hashtbl.remove m.entries node;
    host_remove t old
  | None -> ());
  let store_id = store_id_of t ~prefix vector in
  let e = { node; vector = Array.copy vector; number = Number.number t.scheme vector; store_id } in
  Hashtbl.replace m.entries node e;
  host_add t e

let publish_all t ~node ~vector =
  let pid = Mesh.pastry_id t.mesh node in
  for len = 0 to Mesh.num_digits t.mesh do
    let prefix = Array.init len (fun r -> Mesh.digit t.mesh pid r) in
    publish t ~prefix ~node ~vector
  done

let unpublish t node =
  Hashtbl.iter
    (fun _ m ->
      match Hashtbl.find_opt m.entries node with
      | Some e ->
        Hashtbl.remove m.entries node;
        host_remove t e
      | None -> ())
    t.maps

let rehome t =
  Multimap.reset t.by_host;
  Hashtbl.iter (fun _ m -> Hashtbl.iter (fun _ e -> host_add t e) m.entries) t.maps

let entries_at t host = Multimap.find t.by_host host

let lookup t ~prefix ~vector ?(max_results = 16) ?(ttl = 8) () =
  if Mesh.size t.mesh = 0 then []
  else begin
    let key = region_key t prefix in
    match Hashtbl.find_opt t.maps key with
    | None -> []
    | Some m ->
      let collected = ref [] in
      let count = ref 0 in
      let seen = Hashtbl.create 16 in
      let visit host =
        if not (Hashtbl.mem seen host) then begin
          Hashtbl.replace seen host ();
          List.iter
            (fun e ->
              (* only entries of THIS region's map *)
              match Hashtbl.find_opt m.entries e.node with
              | Some e' when e' == e ->
                collected := e :: !collected;
                incr count
              | Some _ | None -> ())
            (entries_at t host)
        end
      in
      let start = host_of t (store_id_of t ~prefix vector) in
      visit start;
      (* widen across numerically adjacent hosts via leaf sets *)
      let frontier = ref [ start ] in
      let hosts_visited = ref 1 in
      while !count < max_results && !hosts_visited < ttl && !frontier <> [] do
        let next =
          List.concat_map
            (fun h ->
              if Mesh.mem t.mesh h then
                List.filter (fun l -> not (Hashtbl.mem seen l)) (Array.to_list (Mesh.leaves t.mesh h))
              else [])
            !frontier
          |> List.sort_uniq compare
        in
        List.iter
          (fun h ->
            if !hosts_visited < ttl then begin
              visit h;
              incr hosts_visited
            end)
          next;
        frontier := next
      done;
      !collected
      |> List.map (fun e -> (Landmarks.vector_dist vector e.vector, e.node, e))
      |> List.sort compare
      |> List.filteri (fun i _ -> i < max_results)
      |> List.map (fun (_, _, e) -> e)
  end
