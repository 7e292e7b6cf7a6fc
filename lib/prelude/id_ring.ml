type 'a t = {
  bits : int;
  space : int;  (* 2^bits *)
  key : 'a -> int;
  members : (int, 'a) Hashtbl.t;
  owners : (int, int) Hashtbl.t;  (* key -> member id *)
  mutable sorted : (int * int) array;  (* (key, id), sorted by key *)
  mutable dirty : bool;
}

let create ~bits ~key =
  {
    bits;
    space = 1 lsl bits;
    key;
    members = Hashtbl.create 64;
    owners = Hashtbl.create 64;
    sorted = [||];
    dirty = false;
  }

let bits t = t.bits
let space t = t.space
let size t = Hashtbl.length t.members
let mem t id = Hashtbl.mem t.members id
let find_opt t id = Hashtbl.find_opt t.members id
let iter f t = Hashtbl.iter f t.members

let node_ids t =
  let arr = Array.make (size t) 0 in
  let i = ref 0 in
  Hashtbl.iter
    (fun id _ ->
      arr.(!i) <- id;
      incr i)
    t.members;
  arr

let add_at t id ~key make =
  if key < 0 || key >= t.space then invalid_arg "Id_ring.add_at: key out of range";
  if Hashtbl.mem t.owners key then invalid_arg "Id_ring.add_at: key taken";
  Hashtbl.replace t.members id (make key);
  Hashtbl.replace t.owners key id;
  t.dirty <- true

let add t ~rng id make =
  if Hashtbl.length t.owners >= t.space then invalid_arg "Id_ring.add: key space full";
  let rec fresh () =
    let k = Rng.int rng t.space in
    if Hashtbl.mem t.owners k then fresh () else k
  in
  add_at t id ~key:(fresh ()) make

let remove t id =
  match Hashtbl.find_opt t.members id with
  | None -> invalid_arg "Id_ring.remove: not a member"
  | Some m ->
    Hashtbl.remove t.members id;
    Hashtbl.remove t.owners (t.key m);
    t.dirty <- true

let sorted t =
  if t.dirty then begin
    let arr = Array.make (size t) (0, 0) in
    let i = ref 0 in
    Hashtbl.iter
      (fun id m ->
        arr.(!i) <- (t.key m, id);
        incr i)
      t.members;
    Array.sort compare arr;
    t.sorted <- arr;
    t.dirty <- false
  end;
  t.sorted

let norm t v = ((v mod t.space) + t.space) mod t.space

(* Index of the first entry with key >= [key]; the length if none. *)
let first_geq arr key =
  let a = ref 0 and b = ref (Array.length arr) in
  while !a < !b do
    let mid = (!a + !b) / 2 in
    if fst arr.(mid) >= key then b := mid else a := mid + 1
  done;
  !a

let nonempty t what =
  let arr = sorted t in
  if Array.length arr = 0 then failwith ("Id_ring." ^ what ^ ": empty ring");
  arr

let successor t pos =
  let arr = nonempty t "successor" in
  let i = first_geq arr (norm t pos) in
  snd arr.(if i = Array.length arr then 0 else i)

let predecessor t pos =
  let arr = nonempty t "predecessor" in
  let n = Array.length arr in
  snd arr.((first_geq arr (norm t pos) - 1 + n) mod n)

let arc_members t ~lo ~span =
  let arr = sorted t in
  if span <= 0 || Array.length arr = 0 then [||]
  else begin
    let lo = norm t lo in
    (* members with key in [lo, hi) where lo <= hi, no wrap *)
    let collect lo hi =
      let start = first_geq arr lo in
      Array.sub arr start (first_geq arr hi - start)
    in
    let members =
      if lo + span <= t.space then collect lo (lo + span)
      else Array.append (collect lo t.space) (collect 0 (lo + span - t.space))
    in
    Array.map snd members
  end

let clockwise t from target = norm t (target - from)

let between_oc t a b x =
  let a = norm t a and b = norm t b and x = norm t x in
  if a = b then true else if a < b then a < x && x <= b else x > a || x <= b
