(** Ring-buffer event tracer with a typed span taxonomy.

    A tracer records {e spans} — timestamped, typed events with a subject
    node, an optional peer and a free-form note — into a fixed-capacity
    ring buffer.  Recording is O(1) and allocation-light, so hot paths
    (per-hop routing, per-probe measurement) can trace unconditionally;
    when the buffer wraps, the oldest spans are overwritten and counted in
    {!dropped}.

    Timestamps come from the injected [clock] (pass
    [fun () -> Sim.now sim] to trace virtual time) unless the caller
    supplies [?at] explicitly.  Spans can be dumped as JSONL in the Chrome
    trace-event format ([chrome://tracing] / Perfetto load it directly);
    see the [topoaware trace] subcommand. *)

type kind =
  | Route_hop  (** one overlay forwarding step; [node] -> [peer] *)
  | Rtt_probe  (** one RTT measurement; [dur] is the measured RTT *)
  | Map_publish  (** a soft-state entry was (re)published; [note] is the region *)
  | Notify  (** a pub/sub notification; [dur] is the delivery delay *)
  | Ttl_sweep  (** a TTL sweep ran; [note] is the purge count *)
  | Fault_inject  (** a fault-plan event fired or a message was perturbed *)
  | Cache_request
      (** one cache request served; [node] = client, [peer] = serving
          replica, [dur] = delivered latency, [note] = [hit:<key>] /
          [miss:<key>] / [shed:<key>] *)
  | Cache_replicate
      (** a hot entry was copied; [node] = overloaded source, [peer] =
          new replica host, [note] = the key *)
  | Mcast_deliver
      (** one dissemination-tree delivery; [node] = subscriber, [peer] =
          its tree parent, [dur] = root-to-subscriber delivery latency,
          [note] = [pub:<publish index>] *)
  | Mcast_regraft
      (** an orphaned subtree re-attached; [node] = the orphan's root,
          [peer] = its new parent, [dur] = orphanhood duration (parent
          loss to re-graft), [note] = [dead:<lost parent>] — the victim
          tag {!Engine.Repair.analyze} correlates against *)

type span = {
  seq : int;  (** global emission index, 0-based, never reused *)
  at : float;  (** virtual time (ms) the span started *)
  dur : float;  (** duration (ms); 0 for instant events *)
  kind : kind;
  node : int;  (** subject overlay node; -1 for system-wide events *)
  peer : int;  (** counterpart node; -1 when not applicable *)
  note : string;  (** free-form detail; [""] when not applicable *)
}

type t

val create : ?capacity:int -> ?clock:(unit -> float) -> unit -> t
(** Fresh tracer.  [capacity] (default 65,536 spans) must be >= 1;
    [clock] (default: frozen at 0) supplies [at] when {!emit} is not given
    one. *)

val emit : t -> ?at:float -> ?dur:float -> ?peer:int -> ?note:string -> kind -> node:int -> unit
(** Record one span.  [at] defaults to [clock ()], [dur] to 0, [peer] to
    -1, [note] to [""]. *)

val note_buffer : t -> Buffer.t
(** The tracer's reusable note-construction buffer, cleared.  Hot
    emitters build the note here (e.g. with [Printf.bprintf], which
    writes directly into the buffer) and then call {!emit_noted} — one
    exactly-sized string allocation per span instead of [sprintf]'s
    intermediate buffer plus string.  The buffer is private to the
    tracer: fill it and emit before anything else can touch the
    tracer. *)

val emit_noted : t -> ?at:float -> ?dur:float -> ?peer:int -> kind -> node:int -> unit
(** {!emit} with [note] taken from the current contents of
    {!note_buffer}.  The produced span is byte-identical to passing the
    equivalent [sprintf] string to {!emit}. *)

val spans : t -> span list
(** Retained spans, oldest first (at most [capacity]; earlier spans may
    have been overwritten — see {!dropped}). *)

val emitted : t -> int
(** Spans ever recorded. *)

val length : t -> int
(** Spans currently retained, [min emitted capacity]. *)

val dropped : t -> int
(** Spans lost to ring wraparound, [emitted - length]. *)

val capacity : t -> int

val to_jsonl : t -> string
(** All retained spans as JSON Lines, one Chrome trace event per line
    (["ph": "X"], [ts]/[dur] in microseconds, [tid] = node, [args] holds
    [seq]/[peer]/[note]; [name] is the kind in snake case, e.g.
    ["route_hop"]). *)
