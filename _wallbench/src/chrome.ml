(* Wall-clock spans of a traced run, kept in memory and written once as
   Chrome-trace JSON (Perfetto and chrome://tracing open it).

   Three tracks: the workload span on tid 0, its phases on tid 1, and
   per-event layer calls on tid 2.  Layers called too often to trace one
   by one are written as one aggregate span per layer at the start of the
   phase that made the calls (tid 3 upwards), with the call count and
   total in [args]; their position on the timeline is nominal, their
   length is the summed call time. *)

module Json = Prelude.Json

type event = {
  name : string;
  cat : string;
  ts : float;  (** seconds on {!Timing.now}'s clock *)
  dur : float;
  tid : int;
  args : (string * Json.t) list;
}

type t = { mutable events : event list; origin : float }

let create () = { events = []; origin = Timing.now () }

let span t ?(args = []) ~cat ~tid name ~start ~stop =
  t.events <- { name; cat; ts = start; dur = stop -. start; tid; args } :: t.events

(* Run [f] as a span on the given track. *)
let with_span t ~cat ~tid name f =
  let start = Timing.now () in
  let r = f () in
  span t ~cat ~tid name ~start ~stop:(Timing.now ());
  r

let aggregate t ~phase_start ~tid name (a : Timing.acc) =
  if a.Timing.calls > 0 then
    span t ~cat:"layer" ~tid name ~start:phase_start ~stop:(phase_start +. a.Timing.total)
      ~args:[ ("calls", Json.Int a.Timing.calls); ("aggregate", Json.Bool true) ]

let to_json t ~meta =
  let us s = Json.Float (1e6 *. s) in
  let ev e =
    Json.Obj
      ([
         ("name", Json.String e.name);
         ("cat", Json.String e.cat);
         ("ph", Json.String "X");
         ("ts", us (e.ts -. t.origin));
         ("dur", us e.dur);
         ("pid", Json.Int 1);
         ("tid", Json.Int e.tid);
       ]
      @ if e.args = [] then [] else [ ("args", Json.Obj e.args) ])
  in
  Json.Obj
    [
      ("traceEvents", Json.List (List.rev_map ev t.events));
      ("displayTimeUnit", Json.String "ms");
      ("otherData", Json.Obj meta);
    ]

let write t ~meta path =
  let oc = open_out path in
  output_string oc (Json.to_string (to_json t ~meta));
  output_char oc '\n';
  close_out oc
