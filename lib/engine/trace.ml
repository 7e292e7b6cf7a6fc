module Json = Prelude.Json

type kind =
  | Route_hop
  | Rtt_probe
  | Map_publish
  | Notify
  | Ttl_sweep
  | Fault_inject
  | Cache_request
  | Cache_replicate
  | Mcast_deliver
  | Mcast_regraft

let kind_name = function
  | Route_hop -> "route_hop"
  | Rtt_probe -> "rtt_probe"
  | Map_publish -> "map_publish"
  | Notify -> "notify"
  | Ttl_sweep -> "ttl_sweep"
  | Fault_inject -> "fault_inject"
  | Cache_request -> "cache_request"
  | Cache_replicate -> "cache_replicate"
  | Mcast_deliver -> "mcast_deliver"
  | Mcast_regraft -> "mcast_regraft"

type span = {
  seq : int;
  at : float;
  dur : float;
  kind : kind;
  node : int;
  peer : int;
  note : string;
}

let dummy = { seq = -1; at = 0.0; dur = 0.0; kind = Route_hop; node = -1; peer = -1; note = "" }

type t = {
  ring : span array;
  capacity : int;
  clock : unit -> float;
  mutable emitted : int;
  scratch : Buffer.t;  (* arena for note construction; see note_buffer *)
}

let default_capacity = 65_536

let create ?(capacity = default_capacity) ?(clock = fun () -> 0.0) () =
  if capacity < 1 then invalid_arg "Trace.create: capacity must be >= 1";
  { ring = Array.make capacity dummy; capacity; clock; emitted = 0; scratch = Buffer.create 64 }

let emit t ?at ?(dur = 0.0) ?(peer = -1) ?(note = "") kind ~node =
  let at = match at with Some a -> a | None -> t.clock () in
  let seq = t.emitted in
  t.ring.(seq mod t.capacity) <- { seq; at; dur; kind; node; peer; note };
  t.emitted <- seq + 1

(* Arena-style note path: hot emitters format into the tracer's reused
   scratch buffer ([Printf.bprintf] allocates no intermediate buffer or
   string) and {!emit_noted} materialises exactly one string, sized to
   the note.  The produced bytes are identical to the [sprintf]
   equivalent, so trace-parsing analyses are unaffected. *)
let note_buffer t =
  Buffer.clear t.scratch;
  t.scratch

let emit_noted t ?at ?dur ?peer kind ~node =
  emit t ?at ?dur ?peer ~note:(Buffer.contents t.scratch) kind ~node

let emitted t = t.emitted
let capacity t = t.capacity
let length t = min t.emitted t.capacity
let dropped t = t.emitted - length t

let spans t =
  (* Oldest retained span first.  When the ring has wrapped, the oldest
     retained span is the one the next emit would overwrite. *)
  let len = length t in
  let first = t.emitted - len in
  List.init len (fun i -> t.ring.((first + i) mod t.capacity))

(* Chrome trace event format (complete events, "ph":"X"), one JSON object
   per line.  Chrome expects microseconds; the virtual clock is in
   milliseconds, so scale by 1000. *)
let span_json s =
  Json.Obj
    [
      ("name", Json.String (kind_name s.kind));
      ("cat", Json.String "topo");
      ("ph", Json.String "X");
      ("ts", Json.Float (s.at *. 1000.0));
      ("dur", Json.Float (s.dur *. 1000.0));
      ("pid", Json.Int 0);
      ("tid", Json.Int s.node);
      ( "args",
        Json.Obj
          (("seq", Json.Int s.seq)
           :: ((if s.peer >= 0 then [ ("peer", Json.Int s.peer) ] else [])
              @ if s.note <> "" then [ ("note", Json.String s.note) ] else [])) );
    ]

let to_jsonl t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun s ->
      Json.to_buffer buf (span_json s);
      Buffer.add_char buf '\n')
    (spans t);
  Buffer.contents buf
