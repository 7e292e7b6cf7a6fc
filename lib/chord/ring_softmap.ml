(** Soft-state coordinate map stored on an identifier ring (paper
    appendix: "in the case of Chord, we can simply use the landmark number
    as the key to store the information of a node on a node whose ID is
    equal to or greater than the landmark number").

    Every member publishes one entry under the ring key derived from its
    landmark number, so physically-close nodes (close landmark numbers)
    are stored on the same or succeeding ring hosts.  A lookup routes to
    the querying node's own landmark key and walks the successor chain
    collecting candidates.  The construction needs only the ring
    operations of {!RING}, so Chord ({!Softmap}) and Koorde (whose de
    Bruijn overlay keeps a Chord identifier ring underneath) share it. *)

module type RING = sig
  type t

  val key_bits : t -> int
  val size : t -> int
  val key_of : t -> int -> int
  val successor_node : t -> int -> int
  val clockwise : t -> int -> int -> int
end

type entry = {
  node : int;
  vector : float array;
  number : int;
  store_key : int;  (** ring position the entry is stored under *)
}

module type S = sig
  type overlay

  type nonrec entry = entry = {
    node : int;
    vector : float array;
    number : int;
    store_key : int;
  }

  type t

  val create : scheme:Landmark.Number.scheme -> overlay -> t

  val store_key_of : t -> float array -> int
  (** Ring key a vector's entry is stored under (landmark number scaled to
      the ring size). *)

  val publish : t -> node:int -> vector:float array -> unit
  (** Insert or refresh the entry describing [node].  Raises
      [Invalid_argument] if the ring is empty. *)

  val unpublish : t -> int -> unit

  val rehome : t -> unit
  (** Recompute entry->host assignment after ring membership changed. *)

  val entries_at : t -> int -> entry list
  (** Entries hosted by a ring member. *)

  val lookup :
    t ->
    vector:float array ->
    ?in_arc:int * int ->
    ?max_results:int ->
    ?ttl:int ->
    unit ->
    entry list
  (** Route to the host of [vector]'s landmark key and walk up to [ttl]
      (default 32) successor hosts, collecting entries — optionally only
      those whose {e owner's} ring key lies in [in_arc = (lo, span)] (a
      finger arc or de Bruijn image arc).  Results sorted by
      landmark-vector distance, truncated to [max_results] (default
      16). *)
end

module Make (R : RING) : S with type overlay = R.t = struct
  module Multimap = Prelude.Multimap

  type overlay = R.t

  type nonrec entry = entry = {
    node : int;
    vector : float array;
    number : int;
    store_key : int;
  }

  type t = {
    ring : R.t;
    scheme : Landmark.Number.scheme;
    by_host : entry Multimap.t;
    by_node : (int, entry) Hashtbl.t;
  }

  let create ~scheme ring =
    { ring; scheme; by_host = Multimap.create 64; by_node = Hashtbl.create 64 }

  let store_key_of t vector =
    let u = Landmark.Number.to_unit t.scheme (Landmark.Number.number t.scheme vector) in
    let ring_size = 1 lsl R.key_bits t.ring in
    let k = int_of_float (u *. float_of_int ring_size) in
    if k >= ring_size then ring_size - 1 else k

  let host_of t key = R.successor_node t.ring key

  let unpublish t node =
    match Hashtbl.find_opt t.by_node node with
    | Some e ->
      Hashtbl.remove t.by_node node;
      Multimap.remove t.by_host (host_of t e.store_key) (fun x -> x.node = e.node)
    | None -> ()

  let publish t ~node ~vector =
    if R.size t.ring = 0 then invalid_arg "Softmap.publish: empty ring";
    unpublish t node;
    let store_key = store_key_of t vector in
    let number = Landmark.Number.number t.scheme vector in
    let e = { node; vector = Array.copy vector; number; store_key } in
    Hashtbl.replace t.by_node node e;
    Multimap.add t.by_host (host_of t store_key) e

  let rehome t =
    Multimap.reset t.by_host;
    Hashtbl.iter (fun _ e -> Multimap.add t.by_host (host_of t e.store_key) e) t.by_node

  let entries_at t host = Multimap.find t.by_host host

  let lookup t ~vector ?in_arc:arc ?(max_results = 16) ?(ttl = 32) () =
    if R.size t.ring = 0 then []
    else begin
      let accepts e =
        match arc with
        | None -> true
        | Some (lo, span) -> R.clockwise t.ring lo (R.key_of t.ring e.node) < span
      in
      let collected = ref [] in
      let count = ref 0 in
      let start = host_of t (store_key_of t vector) in
      let host = ref start in
      let hops = ref 0 in
      let continue = ref true in
      while !continue && !count < max_results && !hops < ttl do
        List.iter
          (fun e ->
            if accepts e then begin
              collected := e :: !collected;
              incr count
            end)
          (entries_at t !host);
        incr hops;
        let next = R.successor_node t.ring (R.key_of t.ring !host + 1) in
        if next = start then continue := false else host := next
      done;
      !collected
      |> List.map (fun e -> (Landmark.Landmarks.vector_dist vector e.vector, e.node, e))
      |> List.sort compare
      |> List.filteri (fun i _ -> i < max_results)
      |> List.map (fun (_, _, e) -> e)
    end
end
