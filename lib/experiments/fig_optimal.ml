open Rapid_trace
open Rapid_sim
open Rapid_core

(* A slice of the day keeps ILP instances within the solver budget while
   preserving the meeting structure: the first [frac] of the day, active
   nodes restricted to those appearing in it. *)
let day_slice ~(params : Params.t) ~day ~frac =
  let trace = Runners.trace_day ~params ~day in
  let horizon = trace.Trace.duration *. frac in
  Trace.create ~num_nodes:trace.Trace.num_nodes ~duration:horizon
    (Array.to_list trace.Trace.contacts
    |> List.filter (fun (c : Contact.t) -> c.Contact.time < horizon))

let fig13 (params : Params.t) =
  let loads = [ 0.5; 1.0; 2.0; 4.0; 6.0 ] in
  let frac = 0.15 in
  let days = min params.Params.days 3 in
  let rapid = Rapid.default_params Metric.Average_delay in
  let protos =
    [
      { Runners.label = "RAPID in-band"; protocol = Runners.Rapid rapid };
      {
        Runners.label = "RAPID global";
        protocol =
          Runners.Rapid
            { rapid with Rapid.channel = Control_channel.Instant_global };
      };
      Runners.maxprop;
    ]
  in
  let per_day load day =
    let trace = day_slice ~params ~day ~frac in
    let workload = Runners.trace_workload ~params ~trace ~load ~day in
    (trace, workload)
  in
  (* Solver-method counts are tallied from the returned tags, not bumped
     inside the parallel region. *)
  let bound_count = ref 0
  and exact_count = ref 0
  and incumbent_count = ref 0 in
  let optimal_line =
    {
      Series.label = "Optimal";
      points =
        List.map
          (fun load ->
            let vals =
              Rapid_par.Pool.init days (fun day ->
                  let trace, workload = per_day load day in
                  let v =
                    Rapid_routing.Optimal.evaluate ~trace ~workload ()
                  in
                  ( v.Rapid_routing.Optimal.avg_delay_all /. 60.0,
                    v.Rapid_routing.Optimal.how ))
            in
            List.iter
              (fun (_, how) ->
                match how with
                | Rapid_routing.Optimal.Bound -> incr bound_count
                | Rapid_routing.Optimal.Ilp_exact -> incr exact_count
                | Rapid_routing.Optimal.Ilp_incumbent -> incr incumbent_count)
              vals;
            (load, Rapid_prelude.Stats.mean (List.map fst vals)))
          loads;
    }
  in
  let protocol_lines =
    List.map
      (fun { Runners.label; protocol } ->
        {
          Series.label;
          points =
            List.map
              (fun load ->
                let vals =
                  Rapid_par.Pool.init days (fun day ->
                      let trace, workload = per_day load day in
                      let r =
                        (Engine.run ~protocol:(Runners.make protocol) ~trace
                           ~workload ())
                          .Engine.report
                      in
                      r.Metrics.avg_delay_all /. 60.0)
                in
                (load, Rapid_prelude.Stats.mean vals))
              loads;
        })
      protos
  in
  Series.make ~id:"fig13" ~title:"Trace slice: comparison with Optimal"
    ~x_label:"pkts/hr/dest" ~y_label:"avg delay incl. undelivered (min)"
    ~notes:
      [
        Printf.sprintf
          "optimal solved exactly %d times, to an incumbent %d times, by \
           contention-free bound %d times"
          !exact_count !incumbent_count !bound_count;
      ]
    (optimal_line :: protocol_lines)
