module Id_ring = Prelude.Id_ring

type node_state = {
  id : int;
  key : int;
  mutable cover : int array;
      (* de Bruijn entry fingers: charge of the image-arc start first,
         then the members whose keys fall inside the image arc *)
  mutable preferred : int option;  (* policy-chosen entry among [cover] *)
}

type t = {
  degree : int;
  digit_bits : int;  (* log2 degree *)
  digits : int;  (* key_bits / digit_bits *)
  ring : node_state Id_ring.t;
  obs : Engine.Route_obs.t option;
}

type selector = node:int -> arc:int * int -> candidates:int array -> int option

let is_pow2 v = v > 0 && v land (v - 1) = 0

let log2i v =
  let rec go acc v = if v <= 1 then acc else go (acc + 1) (v lsr 1) in
  go 0 v

let create ?metrics ?labels ?trace ?(key_bits = 24) ?(degree = 2) () =
  if key_bits < 3 || key_bits > 48 then invalid_arg "Koorde.create: key_bits out of [3,48]";
  if degree < 2 || degree > 64 || not (is_pow2 degree) then
    invalid_arg "Koorde.create: degree must be a power of two in [2,64]";
  let digit_bits = log2i degree in
  if key_bits mod digit_bits <> 0 then
    invalid_arg "Koorde.create: key_bits must be a multiple of log2 degree";
  {
    degree;
    digit_bits;
    digits = key_bits / digit_bits;
    ring = Id_ring.create ~bits:key_bits ~key:(fun n -> n.key);
    obs = Engine.Route_obs.create ?metrics ?labels ?trace ~overlay:"koorde" ();
  }

let key_bits t = Id_ring.bits t.ring
let degree t = t.degree
let size t = Id_ring.size t.ring
let mem t id = Id_ring.mem t.ring id

let node t id =
  match Id_ring.find_opt t.ring id with
  | Some n -> n
  | None -> invalid_arg "Koorde: not a member"

let key_of t id = (node t id).key
let node_ids t = Id_ring.node_ids t.ring
let make id key = { id; key; cover = [||]; preferred = None }

let add_node_at t id ~key =
  if mem t id then invalid_arg "Koorde.add_node_at: already a member";
  Id_ring.add_at t.ring id ~key (make id)

let add_node t ~rng id =
  if mem t id then invalid_arg "Koorde.add_node: already a member";
  Id_ring.add t.ring ~rng id (make id)

let remove_node t id =
  Id_ring.remove t.ring id;
  Id_ring.iter
    (fun _ other ->
      if Array.exists (fun c -> c = id) other.cover then
        other.cover <- Array.of_seq (Seq.filter (fun c -> c <> id) (Array.to_seq other.cover));
      match other.preferred with Some p when p = id -> other.preferred <- None | _ -> ())
    t.ring

let successor_node t key = Id_ring.successor t.ring key

(* Member whose domain (own key, successor key] contains [pos] — the node
   responsible for hosting imaginary position [pos] on its way to the
   owner.  This is the predecessor of [successor_node pos]. *)
let charge_node t pos = Id_ring.predecessor t.ring pos

let arc_members t ~lo ~span = Id_ring.arc_members t.ring ~lo ~span
let space t = Id_ring.space t.ring
let clockwise t from target = Id_ring.clockwise t.ring from target
let between_oc t a b x = Id_ring.between_oc t.ring a b x

(* Length of [id]'s domain (own key, successor key]; the whole ring for a
   singleton. *)
let domain_span t n =
  if size t = 1 then space t
  else begin
    let succ = successor_node t (n.key + 1) in
    let l = clockwise t n.key (key_of t succ) in
    if l = 0 then space t else l
  end

let image_arc t id =
  let n = node t id in
  let lo = t.degree * ((n.key + 1) mod space t) mod space t in
  let span = min (space t) (t.degree * domain_span t n) in
  (lo, span)

let build_fingers t ~selector =
  Id_ring.iter
    (fun id n ->
      if size t = 1 then begin
        n.cover <- [||];
        n.preferred <- None
      end
      else begin
        let lo, span = image_arc t id in
        let anchor = charge_node t lo in
        let members = arc_members t ~lo ~span in
        let cover =
          if Array.exists (fun m -> m = anchor) members then begin
            (* keep the anchor first: routing treats cover.(0) as the
               entry that may legitimately sit before the arc start *)
            let rest = Seq.filter (fun m -> m <> anchor) (Array.to_seq members) in
            Array.append [| anchor |] (Array.of_seq rest)
          end
          else Array.append [| anchor |] members
        in
        n.cover <- cover;
        let candidates =
          Array.of_seq (Seq.filter (fun c -> c <> id) (Array.to_seq cover))
        in
        n.preferred <-
          (if Array.length candidates > 0 then selector ~node:id ~arc:(lo, span) ~candidates
           else None)
      end)
    t.ring

let cover t id = Array.copy (node t id).cover
let preferred t id = (node t id).preferred

(* The node to contact for imaginary position [pos]: the policy-chosen
   preferred entry when it does not overshoot [pos] along the image arc,
   the exact charge node otherwise. *)
let entry_for t n pos =
  let exact = charge_node t pos in
  if exact = n.id then exact
  else
    match n.preferred with
    | Some p when p <> n.id && mem t p ->
      if p = exact then p
      else if Array.length n.cover > 0 && n.cover.(0) = p then p
      else begin
        let lo = t.degree * ((n.key + 1) mod space t) mod space t in
        if clockwise t lo (key_of t p) < clockwise t lo pos then p else exact
      end
    | _ -> exact

let route t ~src ~key =
  if not (mem t src) then invalid_arg "Koorde.route: source not a member";
  let key = clockwise t 0 key in
  let owner = successor_node t key in
  let g = t.digit_bits in
  (* Best imaginary start: the fewest digits j such that some position in
     the source's domain agrees with the key's top (digits - j) digits,
     i.e. i0 = key >> (j*g)  (mod degree^(digits-j)) for an i0 we own. *)
  let start_state m =
    let l = domain_span t m in
    let a = (m.key + 1) mod space t in
    let rec find j =
      let s = 1 lsl ((t.digits - j) * g) in
      let r = key lsr (j * g) in
      let offset = ((r - a) mod s + s) mod s in
      if offset < l then ((a + offset) mod space t, j) else find (j + 1)
    in
    find 0
  in
  let rec go m i rem acc guard =
    if m.id = owner then Some (List.rev (m.id :: acc))
    else if guard <= 0 then None
    else begin
      let succ = successor_node t (m.key + 1) in
      if between_oc t m.key (key_of t succ) key then
        go (node t succ) i rem (m.id :: acc) (guard - 1)
      else if rem > 0 && between_oc t m.key (key_of t succ) i then begin
        (* consume the next digit of the key, top-first *)
        let digit = (key lsr ((rem - 1) * g)) land (t.degree - 1) in
        let i' = ((i * t.degree) land (space t - 1)) lor digit in
        let next = entry_for t m i' in
        if next = m.id then go m i' (rem - 1) acc guard
        else go (node t next) i' (rem - 1) (m.id :: acc) (guard - 1)
      end
      else go (node t succ) i rem (m.id :: acc) (guard - 1)
    end
  in
  let result =
    let m = node t src in
    if size t = 1 then Some [ src ]
    else begin
      let i0, j = start_state m in
      go m i0 j [] ((4 * size t) + (2 * t.digits))
    end
  in
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
        if successor_node t n.key = id then Ok ()
        else err "node %d is not the successor of its own key" id
      in
      let* () =
        match n.preferred with
        | None -> Ok ()
        | Some p ->
          if not (mem t p) then err "node %d prefers dead node %d" id p
          else if not (Array.exists (fun c -> c = p) n.cover) then
            err "node %d prefers %d outside its cover" id p
          else Ok ()
      in
      let lo, span = image_arc t id in
      let rec check_cover i =
        if i >= Array.length n.cover then Ok ()
        else begin
          let c = n.cover.(i) in
          if not (mem t c) then err "node %d cover entry %d is dead" id c
          else if i > 0 && clockwise t lo (key_of t c) >= span then
            err "node %d cover entry %d outside its image arc" id c
          else check_cover (i + 1)
        end
      in
      check_cover 0)
    (Ok ()) ids
