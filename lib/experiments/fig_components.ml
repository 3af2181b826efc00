open Rapid_sim
open Rapid_core

let fig14 (params : Params.t) =
  let variants =
    [
      Runners.random;
      Runners.random_acks;
      {
        Runners.label = "RAPID local";
        protocol =
          Runners.Rapid
            {
              (Rapid.default_params Metric.Average_delay) with
              Rapid.channel = Control_channel.Local_only;
            };
      };
      Runners.rapid Metric.Average_delay;
    ]
  in
  let lines =
    List.map
      (fun (p : Runners.protocol_spec) ->
        {
          Series.label = p.Runners.label;
          points =
            List.map
              (fun load ->
                let pt = Runners.run_trace_point ~params ~protocol:p ~load () in
                (load, Runners.mean_of pt (fun r -> r.Metrics.avg_delay /. 60.0)))
              params.Params.trace_loads;
        })
      variants
  in
  Series.make ~id:"fig14" ~title:"Trace: RAPID components (cumulative from Random)"
    ~x_label:"pkts/hr/dest" ~y_label:"avg delay (min)" lines
