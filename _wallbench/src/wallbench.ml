(* Entry points shared by the command line and the tests. *)

module Common = Common
module Chrome = Chrome
module Report = Report
module Timing = Timing

let workloads = [ "build"; "serve"; "churn" ]

let run (p : Common.params) ~workload ~traced =
  let untraced, traced_run =
    match workload with
    | "build" -> (Build_wl.untraced, Build_wl.traced)
    | "serve" -> (Serve_wl.untraced, Serve_wl.traced)
    | "churn" -> (Churn_wl.untraced, Churn_wl.traced)
    | w -> invalid_arg (Printf.sprintf "unknown workload %S (expected one of %s)" w (String.concat ", " workloads))
  in
  let p = if traced then { p with Common.chrome = Some (Chrome.create ()) } else { p with Common.chrome = None } in
  let o =
    Common.phase p ("workload " ^ workload) (fun () -> if traced then traced_run p else untraced p)
  in
  (p, o)

let catalogue ~traced = if traced then Report.per_layer else Report.end_to_end
