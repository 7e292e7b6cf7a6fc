type 'a t = (int, 'a list ref) Hashtbl.t

let create n = Hashtbl.create n

let add t key v =
  match Hashtbl.find_opt t key with
  | Some l -> l := v :: !l
  | None -> Hashtbl.replace t key (ref [ v ])

let remove t key p =
  match Hashtbl.find_opt t key with
  | Some l ->
    l := List.filter (fun v -> not (p v)) !l;
    if !l = [] then Hashtbl.remove t key
  | None -> ()

let find t key = match Hashtbl.find_opt t key with Some l -> !l | None -> []
let reset = Hashtbl.reset
