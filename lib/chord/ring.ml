module Id_ring = Prelude.Id_ring

type node_state = { id : int; key : int; mutable fingers : int option array }

type t = { ring : node_state Id_ring.t; obs : Engine.Route_obs.t option }

type selector = node:int -> arc:int * int -> candidates:int array -> int option

let create ?metrics ?labels ?trace ?(key_bits = 30) () =
  if key_bits < 4 || key_bits > 50 then invalid_arg "Chord.create: key_bits out of [4,50]";
  {
    ring = Id_ring.create ~bits:key_bits ~key:(fun n -> n.key);
    obs = Engine.Route_obs.create ?metrics ?labels ?trace ~overlay:"chord" ();
  }

let key_bits t = Id_ring.bits t.ring
let size t = Id_ring.size t.ring
let mem t id = Id_ring.mem t.ring id

let node t id =
  match Id_ring.find_opt t.ring id with
  | Some n -> n
  | None -> invalid_arg "Chord: not a member"

let key_of t id = (node t id).key
let node_ids t = Id_ring.node_ids t.ring

let add_node t ~rng id =
  if mem t id then invalid_arg "Chord.add_node: already a member";
  Id_ring.add t.ring ~rng id (fun key -> { id; key; fingers = Array.make (key_bits t) None })

let remove_node t id =
  Id_ring.remove t.ring id;
  Id_ring.iter
    (fun _ other ->
      Array.iteri
        (fun i -> function Some f when f = id -> other.fingers.(i) <- None | _ -> ())
        other.fingers)
    t.ring

let successor_node t key = Id_ring.successor t.ring key
let arc_members t ~lo ~span = Id_ring.arc_members t.ring ~lo ~span
let clockwise t from target = Id_ring.clockwise t.ring from target
let between_oc t a b x = Id_ring.between_oc t.ring a b x

let build_fingers t ~selector =
  Id_ring.iter
    (fun id n ->
      n.fingers <- Array.make (key_bits t) None;
      for i = 0 to key_bits t - 1 do
        let span = 1 lsl i in
        let lo = (n.key + span) mod Id_ring.space t.ring in
        let candidates = arc_members t ~lo ~span in
        let candidates = Array.of_seq (Seq.filter (fun c -> c <> id) (Array.to_seq candidates)) in
        if Array.length candidates > 0 then n.fingers.(i) <- selector ~node:id ~arc:(lo, span) ~candidates
      done)
    t.ring

let fingers t id =
  let n = node t id in
  let acc = ref [] in
  Array.iteri (fun i -> function Some f -> acc := (i, f) :: !acc | None -> ()) n.fingers;
  List.rev !acc

let route t ~src ~key =
  if not (mem t src) then invalid_arg "Chord.route: source not a member";
  let owner = successor_node t key in
  let rec go u acc guard =
    if u.id = owner then Some (List.rev (u.id :: acc))
    else if guard <= 0 then None
    else begin
      let succ = successor_node t (u.key + 1) in
      if between_oc t u.key (key_of t succ) key then go (node t succ) (u.id :: acc) (guard - 1)
      else begin
        (* closest preceding finger: minimises remaining clockwise distance
           while staying strictly between u and the key *)
        let best = ref None in
        let consider v =
          if v <> u.id && between_oc t u.key (key - 1) (key_of t v) then begin
            let d = clockwise t (key_of t v) key in
            match !best with
            | Some (bd, _) when bd <= d -> ()
            | _ -> best := Some (d, v)
          end
        in
        Array.iter (function Some v -> consider v | None -> ()) u.fingers;
        consider succ;
        match !best with
        | Some (_, v) -> go (node t v) (u.id :: acc) (guard - 1)
        | None -> go (node t succ) (u.id :: acc) (guard - 1)
      end
    end
  in
  let result = go (node t src) [] (4 * size t) in
  Engine.Route_obs.record t.obs result;
  result

let check_invariants t =
  let ( let* ) r f = Result.bind r f in
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let ids = node_ids t in
  let* () =
    Array.fold_left
      (fun acc id ->
        let* () = acc in
        let n = node t id in
        let* () =
          if successor_node t n.key = id then Ok ()
          else err "node %d is not the successor of its own key" id
        in
        let rec check_fingers i =
          if i >= key_bits t then Ok ()
          else begin
            match n.fingers.(i) with
            | None -> check_fingers (i + 1)
            | Some f ->
              if not (mem t f) then err "node %d finger %d points at dead node %d" id i f
              else begin
                let span = 1 lsl i in
                let lo = (n.key + span) mod Id_ring.space t.ring in
                let fk = key_of t f in
                let inside = clockwise t lo fk < span in
                if inside then check_fingers (i + 1)
                else err "node %d finger %d outside its arc" id i
              end
          end
        in
        check_fingers 0)
      (Ok ()) ids
  in
  Ok ()
