module Ring = Chord.Ring
module Mesh = Pastry.Mesh
module Dbj = Koorde.Debruijn

type t = {
  name : string;
  add : int -> unit;
  remove : int -> unit;
  rebuild : pick:Core.Strategy.pick -> unit;
  map_rebuild :
    scheme:Landmark.Number.scheme ->
    vector_of:(int -> float array) ->
    max_results:int ->
    pick:(node:int -> stored:int list -> candidates:int array -> int option) ->
    unit;
  node_ids : unit -> int array;
  mem : int -> bool;
  key_space : int;
  owner : int -> int;
  key_of : int -> int;
  route : src:int -> key:int -> int list option;
  invariants : unit -> (unit, string) result;
  tables_complete : unit -> (unit, string) result;
}

(* The map lookup's owners minus [node] itself, handed to a stored-map
   pick. *)
let with_stored pick ~node ~candidates owners =
  pick ~node ~stored:(List.filter (fun n -> n <> node) owners) ~candidates

let missing what n = if n = 0 then Ok () else Error (Printf.sprintf "%d %s" n what)

(* Chord and Koorde share the identifier ring: membership, keyed routing
   and the ring soft-state map differ only in the completeness check. *)
module type RING = sig
  include Chord.Ring_softmap.RING

  val add_node : t -> rng:Prelude.Rng.t -> int -> unit
  val remove_node : t -> int -> unit
  val mem : t -> int -> bool
  val node_ids : t -> int array

  val build_fingers :
    t -> selector:(node:int -> arc:int * int -> candidates:int array -> int option) -> unit

  val route : t -> src:int -> key:int -> int list option
  val check_invariants : t -> (unit, string) result
end

let on_ring (type r) (module R : RING with type t = r)
    (module Map : Chord.Ring_softmap.S with type overlay = r) ~name ~tables_complete rng ring =
  {
    name;
    add = (fun id -> R.add_node ring ~rng id);
    remove = R.remove_node ring;
    rebuild =
      (fun ~pick ->
        R.build_fingers ring ~selector:(fun ~node ~arc:_ ~candidates -> pick ~node ~candidates));
    map_rebuild =
      (fun ~scheme ~vector_of ~max_results ~pick ->
        let map = Map.create ~scheme ring in
        Array.iter (fun id -> Map.publish map ~node:id ~vector:(vector_of id)) (R.node_ids ring);
        R.build_fingers ring ~selector:(fun ~node ~arc ~candidates ->
            Map.lookup map ~vector:(vector_of node) ~in_arc:arc ~max_results ~ttl:64 ()
            |> List.map (fun (e : Map.entry) -> e.node)
            |> with_stored pick ~node ~candidates));
    node_ids = (fun () -> R.node_ids ring);
    mem = R.mem ring;
    key_space = 1 lsl R.key_bits ring;
    owner = R.successor_node ring;
    key_of = R.key_of ring;
    route = (fun ~src ~key -> R.route ring ~src ~key);
    invariants = (fun () -> R.check_invariants ring);
    tables_complete;
  }

let chord rng =
  let ring = Ring.create () in
  let bits = Ring.key_bits ring in
  let tables_complete () =
    let unset = ref 0 in
    Array.iter
      (fun id ->
        let key = Ring.key_of ring id in
        let filled = Ring.fingers ring id in
        for i = 0 to bits - 1 do
          let lo = (key + (1 lsl i)) land ((1 lsl bits) - 1) in
          let members = Ring.arc_members ring ~lo ~span:(1 lsl i) in
          if Array.exists (fun m -> m <> id) members && not (List.mem_assoc i filled) then
            incr unset
        done)
      (Ring.node_ids ring);
    missing "fingers unset for inhabited arcs" !unset
  in
  on_ring (module Ring) (module Chord.Softmap) ~name:"chord" ~tables_complete rng ring

let pastry rng =
  let mesh = Mesh.create () in
  let nd = Mesh.num_digits mesh and db = Mesh.digit_bits mesh in
  let tables_complete () =
    let ids = Mesh.node_ids mesh in
    (* Count members under every prefix once, so the per-slot
       inhabitation test is O(1). *)
    let counts = Hashtbl.create 4096 in
    Array.iter
      (fun id ->
        let pid = Mesh.pastry_id mesh id in
        for r = 1 to nd do
          let key = (r, pid lsr (db * (nd - r))) in
          Hashtbl.replace counts key (1 + Option.value ~default:0 (Hashtbl.find_opt counts key))
        done)
      ids;
    let unfilled = ref 0 in
    Array.iter
      (fun id ->
        let pid = Mesh.pastry_id mesh id in
        let filled = Mesh.table_entries mesh id in
        for r = 0 to nd - 1 do
          let own = Mesh.digit mesh pid r in
          for c = 0 to (1 lsl db) - 1 do
            if c <> own then begin
              let p = (pid lsr (db * (nd - r - 1))) land lnot ((1 lsl db) - 1) lor c in
              let inhabited = Hashtbl.mem counts (r + 1, p) in
              let have = List.exists (fun (rr, cc, _) -> rr = r && cc = c) filled in
              if inhabited && not have then incr unfilled
            end
          done
        done)
      ids;
    missing "routing slots unfilled for inhabited prefixes" !unfilled
  in
  {
    name = "pastry";
    add = (fun id -> Mesh.add_node mesh ~rng id);
    remove = Mesh.remove_node mesh;
    rebuild =
      (fun ~pick ->
        Mesh.build_tables mesh ~selector:(fun ~node ~prefix:_ ~candidates ->
            pick ~node ~candidates));
    map_rebuild =
      (fun ~scheme ~vector_of ~max_results ~pick ->
        let map = Pastry.Softmap.create ~scheme mesh in
        Array.iter
          (fun id -> Pastry.Softmap.publish_all map ~node:id ~vector:(vector_of id))
          (Mesh.node_ids mesh);
        Mesh.build_tables mesh ~selector:(fun ~node ~prefix ~candidates ->
            Pastry.Softmap.lookup map ~prefix ~vector:(vector_of node) ~max_results ~ttl:16 ()
            |> List.map (fun (e : Pastry.Softmap.entry) -> e.node)
            |> with_stored pick ~node ~candidates));
    node_ids = (fun () -> Mesh.node_ids mesh);
    mem = Mesh.mem mesh;
    key_space = 1 lsl (db * nd);
    owner = Mesh.owner_of mesh;
    key_of = Mesh.pastry_id mesh;
    route = (fun ~src ~key -> Mesh.route mesh ~src ~key);
    invariants = (fun () -> Mesh.check_invariants mesh);
    tables_complete;
  }

let koorde ?(degree = 4) rng =
  let dbj = Dbj.create ~degree () in
  let tables_complete () =
    (* Every cover list must match what a clean rebuild would compute
       from the current membership: the charge of the image-arc start
       plus every member inside the arc. *)
    let stale = ref 0 in
    Array.iter
      (fun id ->
        if Dbj.size dbj > 1 then begin
          let lo, span = Dbj.image_arc dbj id in
          let expected = Hashtbl.create 8 in
          Hashtbl.replace expected (Dbj.charge_node dbj lo) ();
          Array.iter (fun m -> Hashtbl.replace expected m ()) (Dbj.arc_members dbj ~lo ~span);
          let cover = Dbj.cover dbj id in
          if
            Array.length cover <> Hashtbl.length expected
            || not (Array.for_all (fun c -> Hashtbl.mem expected c) cover)
          then incr stale
        end)
      (Dbj.node_ids dbj);
    missing "cover lists diverge from the membership" !stale
  in
  on_ring (module Dbj) (module Koorde.Softmap) ~name:"koorde" ~tables_complete rng dbj
