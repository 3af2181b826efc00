open Rapid_sim
open Rapid_core

let channels metric =
  let base = Rapid.default_params metric in
  [
    { Runners.label = "in-band"; protocol = Runners.Rapid base };
    {
      Runners.label = "global";
      protocol =
        Runners.Rapid
          { base with Rapid.channel = Control_channel.Instant_global };
    };
  ]

let sweep ~params ~metric ~extract =
  List.map
    (fun ({ Runners.label; _ } as protocol) ->
      let points =
        List.map
          (fun load ->
            let point = Runners.run_trace_point ~params ~protocol ~load () in
            (load, Runners.mean_of point extract))
          params.Params.trace_loads
      in
      { Series.label; points })
    (channels metric)

let fig10 params =
  Series.make ~id:"fig10" ~title:"Trace: avg delay, in-band vs instant global"
    ~x_label:"pkts/hr/dest" ~y_label:"avg delay (min)"
    (sweep ~params ~metric:Metric.Average_delay
       ~extract:(fun r -> r.Metrics.avg_delay /. 60.0))

let fig11 params =
  Series.make ~id:"fig11" ~title:"Trace: delivery rate, in-band vs global"
    ~x_label:"pkts/hr/dest" ~y_label:"fraction delivered"
    (sweep ~params ~metric:Metric.Average_delay
       ~extract:(fun r -> r.Metrics.delivery_rate))

let fig12 params =
  Series.make ~id:"fig12" ~title:"Trace: within-deadline, in-band vs global"
    ~x_label:"pkts/hr/dest" ~y_label:"fraction within deadline"
    (sweep ~params ~metric:Metric.Missed_deadlines
       ~extract:(fun r -> r.Metrics.within_deadline_rate))
