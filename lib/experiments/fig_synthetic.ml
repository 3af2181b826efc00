open Rapid_sim
open Rapid_core

type axis = Load | Buffer

let extract_for = function
  | `Avg -> fun (r : Metrics.report) -> r.Metrics.avg_delay
  | `Max -> fun (r : Metrics.report) -> r.Metrics.max_delay
  | `Deadline -> fun (r : Metrics.report) -> r.Metrics.within_deadline_rate

let metric_for = function
  | `Avg -> Metric.Average_delay
  | `Max -> Metric.Maximum_delay
  | `Deadline -> Metric.Missed_deadlines

let y_label_for = function
  | `Avg -> "avg delay (s)"
  | `Max -> "max delay (s)"
  | `Deadline -> "fraction within deadline"

(* Figures 16–18 (and 19–21, 22–24) share their baseline points through
   the runners' memo: the keys of MaxProp, Spray-and-Wait and Random do
   not depend on RAPID's metric. *)
let sweep ~(params : Params.t) ~mobility ~axis ~which =
  let protocols = Runners.comparison_set (metric_for which) in
  let extract = extract_for which in
  let xs, runner =
    match axis with
    | Load ->
        ( params.Params.syn_loads,
          fun (p : Runners.protocol_spec) load ->
            Runners.run_synthetic_point ~params ~protocol:p ~mobility ~load () )
    | Buffer ->
        ( List.map float_of_int params.Params.syn_buffers,
          fun p bytes ->
            Runners.run_synthetic_point ~params ~protocol:p ~mobility
              ~load:20.0
              ~spec:
                { Runners.default_spec with
                  buffer = Runners.Bytes (int_of_float bytes) }
              () )
  in
  List.map
    (fun (p : Runners.protocol_spec) ->
      {
        Series.label = p.Runners.label;
        points =
          List.map (fun x -> (x, Runners.mean_of (runner p x) extract)) xs;
      })
    protocols

let make_fig ~id ~title ~params ~mobility ~axis ~which =
  let x_label =
    match axis with Load -> "pkts/50s/dest" | Buffer -> "buffer (bytes)"
  in
  Series.make ~id ~title ~x_label ~y_label:(y_label_for which)
    (sweep ~params ~mobility ~axis ~which)

let fig16 params =
  make_fig ~id:"fig16" ~title:"Powerlaw: avg delay vs load" ~params
    ~mobility:`Powerlaw ~axis:Load ~which:`Avg

let fig17 params =
  make_fig ~id:"fig17" ~title:"Powerlaw: max delay vs load" ~params
    ~mobility:`Powerlaw ~axis:Load ~which:`Max

let fig18 params =
  make_fig ~id:"fig18" ~title:"Powerlaw: delivery within deadline vs load"
    ~params ~mobility:`Powerlaw ~axis:Load ~which:`Deadline

let fig19 params =
  make_fig ~id:"fig19" ~title:"Powerlaw: avg delay vs buffer size" ~params
    ~mobility:`Powerlaw ~axis:Buffer ~which:`Avg

let fig20 params =
  make_fig ~id:"fig20" ~title:"Powerlaw: max delay vs buffer size" ~params
    ~mobility:`Powerlaw ~axis:Buffer ~which:`Max

let fig21 params =
  make_fig ~id:"fig21" ~title:"Powerlaw: within deadline vs buffer size"
    ~params ~mobility:`Powerlaw ~axis:Buffer ~which:`Deadline

let fig22 params =
  make_fig ~id:"fig22" ~title:"Exponential: avg delay vs load" ~params
    ~mobility:`Exponential ~axis:Load ~which:`Avg

let fig23 params =
  make_fig ~id:"fig23" ~title:"Exponential: max delay vs load" ~params
    ~mobility:`Exponential ~axis:Load ~which:`Max

let fig24 params =
  make_fig ~id:"fig24" ~title:"Exponential: delivery within deadline vs load"
    ~params ~mobility:`Exponential ~axis:Load ~which:`Deadline
