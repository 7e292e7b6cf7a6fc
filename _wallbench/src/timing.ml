(* Wall-clock measurement kit: a monotonic clock, growable sample
   buffers with the percentile rules the report uses, and per-layer
   accumulators that time calls made into the overlay stack. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* [time f] runs [f] and returns its result with the elapsed seconds. *)
let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ------------------------------------------------------------------ *)
(* Sample buffers                                                      *)
(* ------------------------------------------------------------------ *)

type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 256 0.0; len = 0 }

let add s x =
  if s.len = Array.length s.data then begin
    let d = Array.make (2 * s.len) 0.0 in
    Array.blit s.data 0 d 0 s.len;
    s.data <- d
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

let length s = s.len
let to_array s = Array.sub s.data 0 s.len
let sum s = Array.fold_left ( +. ) 0.0 (to_array s)

let percentile xs p = if Array.length xs = 0 then 0.0 else Prelude.Stats.percentile xs p
let median xs = percentile xs 50.0

let mean xs =
  if Array.length xs = 0 then 0.0
  else Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

(* The tail a sample set can support: the highest percentile of the
   ladder that still leaves at least ten samples beyond it.  The ladder
   stops at p99: further out, a few dozen inherently slow operations of
   one input sample decide the figure, and it moved by half between
   seeds. *)
let tail_ladder = [ 99.0; 95.0; 90.0; 75.0 ]

let tail_pct n =
  match List.find_opt (fun p -> float_of_int n *. (100.0 -. p) /. 100.0 >= 10.0) tail_ladder with
  | Some p -> p
  | None -> 50.0

let pct_name p =
  if Float.is_integer p then Printf.sprintf "p%.0f" p
  else Printf.sprintf "p%s" (Printf.sprintf "%g" p)

(* ------------------------------------------------------------------ *)
(* Per-layer accumulators                                              *)
(* ------------------------------------------------------------------ *)

type acc = { mutable calls : int; mutable total : float; lat : samples }

let acc () = { calls = 0; total = 0.0; lat = samples () }

let record a d =
  a.calls <- a.calls + 1;
  a.total <- a.total +. d;
  add a.lat d

(* Time one call into a layer, recording it even when it raises. *)
let timed a f =
  let t0 = now () in
  match f () with
  | r ->
    record a (now () -. t0);
    r
  | exception e ->
    record a (now () -. t0);
    raise e

let p50_us a = 1e6 *. median (to_array a.lat)
let tail_us a = 1e6 *. percentile (to_array a.lat) (tail_pct a.calls)

(* ------------------------------------------------------------------ *)
(* Process resources                                                   *)
(* ------------------------------------------------------------------ *)

(* Peak resident set size (VmHWM), MB; 0 where /proc is unavailable. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.0
      | line ->
        (match Scanf.sscanf line "VmHWM: %d kB" (fun kb -> kb) with
        | kb -> float_of_int kb /. 1024.0
        | exception _ -> scan ())
    in
    let v = scan () in
    close_in ic;
    v

(* GC activity over a timed phase, as the three runtime metrics. *)
let gc_delta (before : Gc.stat) (after : Gc.stat) =
  [
    ("gc.minor_mwords", (after.Gc.minor_words -. before.Gc.minor_words) /. 1e6);
    ("gc.major_collections", float_of_int (after.Gc.major_collections - before.Gc.major_collections));
    ( "gc.top_heap_mb",
      float_of_int after.Gc.top_heap_words *. float_of_int (Sys.word_size / 8) /. 1048576.0 );
  ]
