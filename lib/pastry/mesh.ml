module Id_ring = Prelude.Id_ring
module Multimap = Prelude.Multimap

type node_state = {
  id : int;
  pid : int;
  mutable table : int option array array;  (* row -> digit -> node id *)
  mutable leaves : int array;
}

type t = {
  digit_bits : int;
  num_digits : int;
  ring : node_state Id_ring.t;  (* keyed by Pastry id *)
  prefix_members : int Multimap.t;  (* (len, prefix) key -> ids *)
  obs : Engine.Route_obs.t option;
}

type selector = node:int -> prefix:int array -> candidates:int array -> int option

let create ?metrics ?labels ?trace ?(digit_bits = 2) ?(num_digits = 15) () =
  if digit_bits < 1 || digit_bits > 4 then invalid_arg "Pastry.create: digit_bits out of [1,4]";
  if num_digits < 2 then invalid_arg "Pastry.create: num_digits must be >= 2";
  if digit_bits * num_digits > 50 then invalid_arg "Pastry.create: id space too large";
  {
    digit_bits;
    num_digits;
    ring = Id_ring.create ~bits:(digit_bits * num_digits) ~key:(fun n -> n.pid);
    prefix_members = Multimap.create 64;
    obs = Engine.Route_obs.create ?metrics ?labels ?trace ~overlay:"pastry" ();
  }

let digit_bits t = t.digit_bits
let num_digits t = t.num_digits
let size t = Id_ring.size t.ring
let mem t id = Id_ring.mem t.ring id
let fan t = 1 lsl t.digit_bits

let node t id =
  match Id_ring.find_opt t.ring id with
  | Some n -> n
  | None -> invalid_arg "Pastry: not a member"

let pastry_id t id = (node t id).pid
let node_ids t = Id_ring.node_ids t.ring
let digit t pid r = (pid lsr ((t.num_digits - 1 - r) * t.digit_bits)) land (fan t - 1)

let shared_prefix_len t a b =
  let rec go r = if r >= t.num_digits then r else if digit t a r = digit t b r then go (r + 1) else r in
  go 0

let prefix_key len value = (len lsl 52) lor value

let prefix_value t pid len = if len = 0 then 0 else pid lsr ((t.num_digits - len) * t.digit_bits)

let add_node t ~rng id =
  if mem t id then invalid_arg "Pastry.add_node: already a member";
  Id_ring.add t.ring ~rng id (fun pid -> { id; pid; table = [||]; leaves = [||] });
  let pid = pastry_id t id in
  for len = 0 to t.num_digits do
    Multimap.add t.prefix_members (prefix_key len (prefix_value t pid len)) id
  done

let remove_node t id =
  let pid = pastry_id t id in
  Id_ring.remove t.ring id;
  for len = 0 to t.num_digits do
    Multimap.remove t.prefix_members (prefix_key len (prefix_value t pid len)) (fun m -> m = id)
  done;
  Id_ring.iter
    (fun _ other ->
      Array.iter
        (fun row ->
          Array.iteri (fun i -> function Some v when v = id -> row.(i) <- None | _ -> ()) row)
        other.table;
      other.leaves <- Array.of_seq (Seq.filter (fun l -> l <> id) (Array.to_seq other.leaves)))
    t.ring

let circular_dist t a b =
  let d = abs (a - b) in
  min d (Id_ring.space t.ring - d)

let owner_of t key =
  let arr = Id_ring.sorted t.ring in
  if Array.length arr = 0 then failwith "Pastry.owner_of: empty mesh";
  let key = Id_ring.clockwise t.ring 0 key in
  let best = ref None in
  Array.iter
    (fun (pid, id) ->
      let d = circular_dist t pid key in
      match !best with
      | Some (bd, bpid, _) when (bd, bpid) <= (d, pid) -> ()
      | _ -> best := Some (d, pid, id))
    arr;
  match !best with Some (_, _, id) -> id | None -> assert false

let members_with_prefix t digits =
  let len = Array.length digits in
  if len > t.num_digits then invalid_arg "Pastry.members_with_prefix: prefix too long";
  if Array.exists (fun d -> d < 0 || d >= fan t) digits then
    invalid_arg "Pastry.members_with_prefix: digit out of range";
  let value = Array.fold_left (fun acc d -> (acc lsl t.digit_bits) lor d) 0 digits in
  Array.of_list (Multimap.find t.prefix_members (prefix_key len value))

(* Each member's leaf set: the [leaf_radius] ring neighbours on either side. *)
let leaf_radius = 4

let rebuild_leaves t =
  let arr = Id_ring.sorted t.ring in
  let n = Array.length arr in
  Array.iteri
    (fun i (_, id) ->
      let node = node t id in
      let radius = min leaf_radius ((n - 1) / 2) in
      let acc = ref [] in
      for k = 1 to radius do
        acc := snd arr.((i + k) mod n) :: snd arr.(((i - k) mod n + n) mod n) :: !acc
      done;
      node.leaves <- Array.of_list (List.sort_uniq compare (List.filter (fun l -> l <> id) !acc)))
    arr

let digits_of_prefix t pid len = Array.init len (fun r -> digit t pid r)

let build_tables t ~selector =
  rebuild_leaves t;
  Id_ring.iter
    (fun id n ->
      n.table <- Array.init t.num_digits (fun _ -> Array.make (fan t) None);
      (try
         for row = 0 to t.num_digits - 1 do
           let own = digit t n.pid row in
           let base = digits_of_prefix t n.pid row in
           let row_has_candidates = ref false in
           for c = 0 to fan t - 1 do
             if c <> own then begin
               let prefix = Array.append base [| c |] in
               let candidates = members_with_prefix t prefix in
               if Array.length candidates > 0 then begin
                 row_has_candidates := true;
                 n.table.(row).(c) <- selector ~node:id ~prefix ~candidates
               end
             end
           done;
           (* Beyond the row where this node is alone in its prefix there
              are no candidates anywhere; stop early. *)
           if (not !row_has_candidates) && Array.length (members_with_prefix t base) <= 1 then
             raise Exit
         done
       with Exit -> ()))
    t.ring

let table_entries t id =
  let n = node t id in
  let acc = ref [] in
  Array.iteri
    (fun row slots ->
      Array.iteri (fun c -> function Some v -> acc := (row, c, v) :: !acc | None -> ()) slots)
    n.table;
  List.rev !acc

let leaves t id = Array.copy (node t id).leaves

let route t ~src ~key =
  if not (mem t src) then invalid_arg "Pastry.route: source not a member";
  let key = Id_ring.clockwise t.ring 0 key in
  let owner = owner_of t key in
  let visited = Hashtbl.create 16 in
  let rec go u acc guard =
    if u.id = owner then Some (List.rev (u.id :: acc))
    else if guard <= 0 then None
    else begin
      Hashtbl.replace visited u.id ();
      let r = shared_prefix_len t u.pid key in
      let next =
        if Array.exists (fun l -> l = owner) u.leaves then
          (* The numerically closest node is already in the leaf set.  It
             may share a *shorter* prefix with the key than we do (the key
             sits just across a digit boundary), so this check must come
             before prefix routing. *)
          Some owner
        else begin
          (* Routing-table entry extending the shared prefix. *)
          let c = digit t key r in
          match if r < t.num_digits then u.table.(r).(c) else None with
          | Some v when not (Hashtbl.mem visited v) -> Some v
          | _ ->
            (* Rare case: any known node strictly closer numerically. *)
            let best = ref None in
            let du = circular_dist t u.pid key in
            let consider v =
              if (not (Hashtbl.mem visited v)) && mem t v then begin
                let d = circular_dist t (pastry_id t v) key in
                if d < du then begin
                  match !best with
                  | Some (bd, _) when bd <= d -> ()
                  | _ -> best := Some (d, v)
                end
              end
            in
            Array.iter consider u.leaves;
            Array.iter
              (fun row -> Array.iter (function Some v -> consider v | None -> ()) row)
              u.table;
            (match !best with Some (_, v) -> Some v | None -> None)
        end
      in
      match next with
      | Some v -> go (node t v) (u.id :: acc) (guard - 1)
      | None -> None
    end
  in
  let result = go (node t src) [] (4 * size t) in
  Engine.Route_obs.record t.obs result;
  result

let check_invariants t =
  let ( let* ) r f = Result.bind r f in
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let ids = node_ids t in
  Array.fold_left
    (fun acc id ->
      let* () = acc in
      let n = node t id in
      let* () =
        List.fold_left
          (fun acc (row, c, target) ->
            let* () = acc in
            if not (mem t target) then err "node %d row %d points at dead node" id row
            else begin
              let tp = pastry_id t target in
              if shared_prefix_len t tp n.pid >= row && digit t tp row = c then Ok ()
              else err "node %d row %d digit %d entry does not match its region" id row c
            end)
          (Ok ()) (table_entries t id)
      in
      Array.fold_left
        (fun acc l ->
          let* () = acc in
          if mem t l then Ok () else err "node %d has dead leaf" id)
        (Ok ()) n.leaves)
    (Ok ()) ids
