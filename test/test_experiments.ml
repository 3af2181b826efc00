(* Tests for Rapid_experiments: the series container/renderer, experiment
   catalog integrity, parameter profiles, the point key, and minimal
   end-to-end trace and synthetic points (memoization included). *)

open Rapid_experiments

let series =
  Series.make ~id:"figX" ~title:"test" ~x_label:"load" ~y_label:"delay"
    [
      { Series.label = "A"; points = [ (1.0, 10.0); (2.0, 20.0) ] };
      { Series.label = "B"; points = [ (1.0, 12.0); (2.0, 18.0) ] };
    ]

let test_series_render () =
  let s = Series.render series in
  Alcotest.(check bool) "has title" true
    (Astring.String.is_infix ~affix:"FIGX" s || Astring.String.is_infix ~affix:"figX" s);
  List.iter
    (fun needle ->
      if not (Astring.String.is_infix ~affix:needle s) then
        Alcotest.failf "missing %S in rendered series:\n%s" needle s)
    [ "A"; "B"; "load"; "delay"; "10"; "18" ]

let test_series_crossover () =
  (* B starts above A (12 > 10 at x=1); A overtakes at x=2 (20 > 18). *)
  Alcotest.(check (option (float 1e-9))) "A first exceeds B at 2" (Some 2.0)
    (Series.crossover series ~a:"A" ~b:"B");
  Alcotest.(check (option (float 1e-9))) "B exceeds A from the start" (Some 1.0)
    (Series.crossover series ~a:"B" ~b:"A")

let test_series_ratio () =
  match Series.ratio_at series ~a:"A" ~b:"B" ~x:1.0 with
  | Some r ->
      if Float.abs (r -. (10.0 /. 12.0)) > 1e-9 then Alcotest.failf "ratio %f" r
  | None -> Alcotest.fail "ratio missing"

let test_catalog_complete () =
  (* Table 3, Fig 3, Figs 4-24, the robustness fault sweep, and the
     ablation study: 25 artifacts, unique ids, all findable. *)
  Alcotest.(check int) "25 artifacts" 25 (List.length Catalog.all);
  let ids = List.map (fun (i : Catalog.item) -> i.Catalog.id) Catalog.all in
  Alcotest.(check int) "unique ids" (List.length ids)
    (List.length (List.sort_uniq compare ids));
  List.iter
    (fun id ->
      match Catalog.find id with
      | Some _ -> ()
      | None -> Alcotest.failf "catalog missing %s" id)
    ([ "table3"; "fig3" ] @ List.init 21 (fun i -> Printf.sprintf "fig%d" (i + 4)))

let test_params_profiles () =
  let q = Params.get Params.Quick and f = Params.get Params.Full in
  Alcotest.(check bool) "full has more days" true (f.Params.days > q.Params.days);
  Alcotest.(check bool) "full trace is full-size" true
    (f.Params.dieselnet.Rapid_trace.Dieselnet.day_seconds
    > q.Params.dieselnet.Rapid_trace.Dieselnet.day_seconds);
  (* Table 4 constants in both. *)
  Alcotest.(check int) "20 synthetic nodes" 20 q.Params.syn_nodes;
  Alcotest.(check int) "1KB packets" 1024 q.Params.syn_packet_bytes;
  Alcotest.(check (float 1e-9)) "20s deadline" 20.0 q.Params.syn_deadline

let test_syn_pair_rate () =
  let p = Params.get Params.Quick in
  (* load L per 50s per destination over (n-1) sources: per-pair/hour =
     L/(n-1) * 72. *)
  let r = Params.syn_pair_rate_per_hour p 19.0 in
  if Float.abs (r -. 72.0) > 1e-9 then Alcotest.failf "pair rate %f" r

let test_trace_point_cached () =
  let params =
    { (Params.get Params.Quick) with Params.days = 1; trace_loads = [ 1.0 ] }
  in
  let t0 = Unix.gettimeofday () in
  let p1 =
    Runners.run_trace_point ~params ~protocol:Runners.spray_wait ~load:1.0 ()
  in
  let first = Unix.gettimeofday () -. t0 in
  let t0 = Unix.gettimeofday () in
  let p2 =
    Runners.run_trace_point ~params ~protocol:Runners.spray_wait ~load:1.0 ()
  in
  let second = Unix.gettimeofday () -. t0 in
  Alcotest.(check int) "same day count" (List.length p1) (List.length p2);
  Alcotest.(check bool) "cache hit faster or instant" true
    (second <= first || second < 0.01);
  (* Physically the same result object. *)
  Alcotest.(check bool) "identical" true (p1 == p2)

(* ------------------------------------------------------------------ *)
(* The point key. *)

module Rapid = Rapid_core.Rapid
module Faults = Rapid_faults.Faults
module Dn = Rapid_trace.Dieselnet

let digest params d = Rapid_store.Store.digest_of_key (Runners.key params d)
let channels = Rapid_core.Control_channel.[ In_band; Instant_global; Local_only ]

let gen_desc =
  let open QCheck.Gen in
  let rapid =
    map
      (fun (metric, (channel, (use_acks, (h_hops, cap)))) ->
        Runners.Rapid
          {
            (Rapid.default_params metric) with
            Rapid.channel;
            use_acks;
            h_hops;
            meta_self_cap_frac = cap;
          })
      (pair (oneofl Rapid_core.Metric.all)
         (pair (oneofl channels)
            (pair bool (pair (int_range 1 3) (oneofl [ 0.02; 0.1 ])))))
  in
  let proto =
    oneof
      [
        rapid;
        oneofl Runners.[ Maxprop; Prophet; Epidemic; Direct ];
        map (fun l -> Runners.Spray_wait l) (int_range 1 16);
        map (fun acks -> Runners.Random { acks }) bool;
      ]
  in
  let model =
    oneofl Runners.[ Trace_days; Synthetic `Powerlaw; Synthetic `Exponential ]
  in
  (* Faults always carry a live rate, so the fault seed is a live field
     too (an all-zero config is canonicalized whatever its seed). *)
  let faults =
    map
      (fun (seed, (reboots, (t, (m, c)))) ->
        {
          Faults.seed;
          reboots_per_node = reboots;
          truncate_prob = t;
          meta_drop_prob = m;
          contact_drop_prob = c;
        })
      (pair (int_range 0 99)
         (pair (oneofl [ 0.5; 1.0; 2.0 ])
            (pair (oneofl [ 0.0; 0.1; 0.3 ])
               (pair (oneofl [ 0.0; 0.1; 0.3 ]) (oneofl [ 0.0; 0.1; 0.3 ])))))
  in
  let spec =
    map
      (fun (meta_cap_frac, (buffer, (deployment_noise, faults))) ->
        { Runners.meta_cap_frac; buffer; deployment_noise; faults })
      (pair
         (oneofl [ None; Some 0.05 ])
         (pair
            (oneofl Runners.[ Profile_default; Unlimited; Bytes 8192 ])
            (pair bool faults)))
  in
  map
    (fun (proto, (model, (load, spec))) -> { Runners.proto; model; load; spec })
    (pair proto (pair model (pair (oneofl [ 1.0; 6.0; 12.0 ]) spec)))

(* Every single-field change a point can see, as (name, mutation); a
   mutation returns [None] where the field does not apply to the point
   (a RAPID knob on a baseline, a trace input on a synthetic point, a
   profile buffer under an explicit buffer override). *)
let mutations =
  let open Runners in
  let rapid f (p, d) =
    match d.proto with
    | Rapid r -> Some (p, { d with proto = Rapid (f r) })
    | _ -> None
  in
  let point f (p, d) = Some (p, f d) in
  let spec f = point (fun d -> { d with spec = f d.spec }) in
  let faults f = spec (fun s -> { s with faults = f s.faults }) in
  let prob x = if x < 0.5 then x +. 0.25 else x -. 0.25 in
  let trace f (p, d) =
    match d.model with Trace_days -> Some (f p, d) | Synthetic _ -> None
  in
  let dieselnet f =
    trace (fun p -> { p with Params.dieselnet = f p.Params.dieselnet })
  in
  let synthetic f (p, d) =
    match d.model with Synthetic _ -> Some (f p, d) | Trace_days -> None
  in
  (* The profile's buffer only counts where the spec defers to it. *)
  let profile_buffer model_field f (p, d) =
    match d.spec.buffer with
    | Profile_default -> model_field f (p, d)
    | _ -> None
  in
  let next_in l x =
    let rec go = function
      | a :: (b :: _ as rest) -> if a = x then b else go rest
      | _ -> List.hd l
    in
    go l
  in
  [
    ( "rapid.metric",
      rapid (fun r ->
          { r with Rapid.metric = next_in Rapid_core.Metric.all r.Rapid.metric }) );
    ( "rapid.channel",
      rapid (fun r ->
          { r with Rapid.channel = next_in channels r.Rapid.channel }) );
    ( "rapid.use_acks",
      rapid (fun r -> { r with Rapid.use_acks = not r.Rapid.use_acks }) );
    ( "rapid.ack_entry_bytes",
      rapid (fun r ->
          { r with Rapid.ack_entry_bytes = r.Rapid.ack_entry_bytes + 1 }) );
    ( "rapid.table_entry_bytes",
      rapid (fun r ->
          { r with Rapid.table_entry_bytes = r.Rapid.table_entry_bytes + 1 }) );
    ( "rapid.packet_entry_bytes",
      rapid (fun r ->
          { r with Rapid.packet_entry_bytes = r.Rapid.packet_entry_bytes + 1 })
    );
    ( "rapid.h_hops",
      rapid (fun r -> { r with Rapid.h_hops = r.Rapid.h_hops + 1 }) );
    ( "rapid.meta_self_cap_frac",
      rapid (fun r ->
          let c = r.Rapid.meta_self_cap_frac in
          { r with Rapid.meta_self_cap_frac = c +. 0.01 }) );
    ( "spray_wait.l",
      fun (p, d) ->
        match d.proto with
        | Spray_wait l -> Some (p, { d with proto = Spray_wait (l + 1) })
        | _ -> None );
    ( "random.acks",
      fun (p, d) ->
        match d.proto with
        | Random { acks } ->
            Some (p, { d with proto = Random { acks = not acks } })
        | _ -> None );
    ("load", point (fun d -> { d with load = d.load +. 1.0 }));
    ( "mobility",
      fun (p, d) ->
        match d.model with
        | Trace_days -> None
        | Synthetic `Powerlaw -> Some (p, { d with model = Synthetic `Exponential })
        | Synthetic `Exponential -> Some (p, { d with model = Synthetic `Powerlaw })
    );
    ( "spec.meta_cap_frac",
      spec (fun s ->
          let c = Option.fold ~none:0.1 ~some:(fun c -> c +. 0.01) s.meta_cap_frac in
          { s with meta_cap_frac = Some c }) );
    ( "spec.buffer",
      spec (fun s ->
          let b = match s.buffer with Bytes b -> b + 1 | _ -> 4096 in
          { s with buffer = Bytes b }) );
    ( "spec.deployment_noise",
      spec (fun s -> { s with deployment_noise = not s.deployment_noise }) );
    ("faults.seed", faults (fun f -> { f with Faults.seed = f.Faults.seed + 1 }));
    ( "faults.reboots_per_node",
      faults (fun f ->
          { f with Faults.reboots_per_node = f.Faults.reboots_per_node +. 0.5 }) );
    ( "faults.truncate_prob",
      faults (fun f -> { f with Faults.truncate_prob = prob f.Faults.truncate_prob }) );
    ( "faults.meta_drop_prob",
      faults (fun f -> { f with Faults.meta_drop_prob = prob f.Faults.meta_drop_prob }) );
    ( "faults.contact_drop_prob",
      faults (fun f ->
          { f with Faults.contact_drop_prob = prob f.Faults.contact_drop_prob }) );
    ( "base_seed",
      fun (p, d) -> Some ({ p with Params.base_seed = p.Params.base_seed + 1 }, d) );
    ("days", trace (fun p -> { p with Params.days = p.Params.days + 1 }));
    ( "trace_packet_bytes",
      trace (fun p ->
          { p with Params.trace_packet_bytes = p.Params.trace_packet_bytes + 1 }) );
    ( "trace_deadline",
      trace (fun p ->
          { p with Params.trace_deadline = p.Params.trace_deadline +. 1.0 }) );
    ( "trace_buffer_bytes",
      profile_buffer trace (fun p ->
          let b = Option.fold ~none:4096 ~some:succ p.Params.trace_buffer_bytes in
          { p with Params.trace_buffer_bytes = Some b }) );
    ( "dieselnet.fleet_size",
      dieselnet (fun dn -> { dn with Dn.fleet_size = dn.Dn.fleet_size + 1 }) );
    ( "dieselnet.mean_scheduled",
      dieselnet (fun dn -> { dn with Dn.mean_scheduled = dn.Dn.mean_scheduled + 1 })
    );
    ( "dieselnet.num_routes",
      dieselnet (fun dn -> { dn with Dn.num_routes = dn.Dn.num_routes + 1 }) );
    ( "dieselnet.day_seconds",
      dieselnet (fun dn -> { dn with Dn.day_seconds = dn.Dn.day_seconds +. 1.0 }) );
    ( "dieselnet.meetings_per_day",
      dieselnet (fun dn ->
          { dn with Dn.meetings_per_day = dn.Dn.meetings_per_day +. 1.0 }) );
    ( "dieselnet.mean_contact_bytes",
      dieselnet (fun dn ->
          { dn with Dn.mean_contact_bytes = dn.Dn.mean_contact_bytes +. 1.0 }) );
    ( "syn_runs",
      synthetic (fun p -> { p with Params.syn_runs = p.Params.syn_runs + 1 }) );
    ( "syn_nodes",
      synthetic (fun p -> { p with Params.syn_nodes = p.Params.syn_nodes + 1 }) );
    ( "syn_duration",
      synthetic (fun p ->
          { p with Params.syn_duration = p.Params.syn_duration +. 1.0 }) );
    ( "syn_mean_inter_meeting",
      synthetic (fun p ->
          let m = p.Params.syn_mean_inter_meeting in
          { p with Params.syn_mean_inter_meeting = m +. 1.0 }) );
    ( "syn_opportunity_bytes",
      synthetic (fun p ->
          let b = p.Params.syn_opportunity_bytes in
          { p with Params.syn_opportunity_bytes = b + 1 }) );
    ( "syn_packet_bytes",
      synthetic (fun p ->
          { p with Params.syn_packet_bytes = p.Params.syn_packet_bytes + 1 }) );
    ( "syn_deadline",
      synthetic (fun p ->
          { p with Params.syn_deadline = p.Params.syn_deadline +. 1.0 }) );
    ( "syn_buffer_bytes",
      profile_buffer synthetic (fun p ->
          { p with Params.syn_buffer_bytes = p.Params.syn_buffer_bytes + 1 }) );
  ]

let prop_key_total =
  QCheck.Test.make ~name:"any single-field change moves the point digest"
    ~count:300
    (QCheck.make
       ~print:(fun d ->
         Rapid_obs.Json.to_string (Runners.key (Params.get Params.Quick) d))
       gen_desc)
    (fun d ->
      let params = Params.get Params.Quick in
      let base = digest params d in
      List.iter
        (fun (name, mutate) ->
          match mutate (params, d) with
          | None -> ()
          | Some (params', d') ->
              if digest params' d' = base then
                QCheck.Test.fail_reportf "%s did not change the digest" name)
        mutations;
      (* Presentation-only inputs do not split a point. *)
      let same (params', d') = digest params' d' = base in
      same ({ params with Params.trace_loads = [] }, d)
      && same ({ params with Params.syn_loads = []; syn_buffers = [] }, d)
      && same ({ params with Params.profile = Params.Full }, d))

(* The ablation rows "h = 1" and "h = 2" used to be served from the
   default RAPID point: h_hops was missing from the key. *)
let test_h_hops_not_aliased () =
  Runners.reset_point_cache ();
  let params = { (Params.get Params.Quick) with Params.days = 1 } in
  let base = Rapid.default_params Rapid_core.Metric.Average_delay in
  let run p =
    Runners.run_trace_point ~params
      ~protocol:{ Runners.label = "RAPID"; protocol = Runners.Rapid p }
      ~load:12.0 ()
  in
  let h3 = run base and h1 = run { base with Rapid.h_hops = 1 } in
  Alcotest.(check bool) "distinct values" false (h3 == h1);
  Alcotest.(check bool) "different reports" true (compare h3 h1 <> 0)

let test_synthetic_point_memo () =
  Runners.reset_point_cache ();
  let params =
    { (Params.get Params.Quick) with Params.syn_runs = 1; syn_duration = 300.0 }
  in
  let run () =
    Runners.run_synthetic_point ~params ~protocol:Runners.spray_wait
      ~mobility:`Powerlaw ~load:10.0 ()
  in
  let p1 = run () in
  Alcotest.(check bool) "repeat call is memoized" true (p1 == run ());
  Runners.reset_point_cache ();
  let p2 = run () in
  Alcotest.(check bool) "reset drops the memoized point" false (p1 == p2);
  Alcotest.(check bool) "recomputed point is equal" true (compare p1 p2 = 0)

let test_pair_ttest_self_is_null () =
  (* A protocol against itself must show zero difference, p = 1. *)
  let params =
    { (Params.get Params.Quick) with Params.days = 1 }
  in
  match
    Pair_ttest.compare_protocols ~params ~a:Runners.spray_wait
      ~b:Runners.spray_wait ~load:4.0
  with
  | None -> Alcotest.fail "expected paired observations"
  | Some r ->
      Alcotest.(check (float 1e-9)) "no mean difference" 0.0
        r.Pair_ttest.t.Rapid_prelude.Stats.mean_diff;
      Alcotest.(check (float 1e-6)) "p = 1" 1.0
        r.Pair_ttest.t.Rapid_prelude.Stats.p_value

let test_pair_ttest_renders () =
  let s = Pair_ttest.render ~a_label:"A" ~b_label:"B" ~load:4.0 None in
  if not (Astring.String.is_infix ~affix:"not enough" s) then
    Alcotest.fail "render of None"

let test_fig13_slice_solved_exactly () =
  (* Regression for the bounded-variable solver rewrite: the load-2.0
     day-1 fig13 slice used to blow the row guard (x <= 1 rows) and fall
     back to the contention-free bound; it must now close to proven
     optimality. The golden average delay was computed by the pre-rewrite
     dense solver run without guards; avg_delay_all is an affine function
     of the ILP objective, so this pins the optimum despite alternate
     optimal routings. *)
  let params = Params.get Params.Quick in
  let trace = Fig_optimal.day_slice ~params ~day:1 ~frac:0.15 in
  let workload = Runners.trace_workload ~params ~trace ~load:2.0 ~day:1 in
  let v = Rapid_routing.Optimal.evaluate ~trace ~workload () in
  (match v.Rapid_routing.Optimal.how with
  | Rapid_routing.Optimal.Ilp_exact -> ()
  | Rapid_routing.Optimal.Ilp_incumbent -> Alcotest.fail "got Ilp_incumbent"
  | Rapid_routing.Optimal.Bound -> Alcotest.fail "fell back to Bound");
  Alcotest.(check (float 1e-6)) "golden objective" 1217.808623065
    v.Rapid_routing.Optimal.avg_delay_all

let test_deployment_table3_shape () =
  let params =
    { (Params.get Params.Quick) with Params.days = 1 }
  in
  let t = Deployment.table3 params in
  Alcotest.(check bool) "buses positive" true (t.Deployment.avg_buses_scheduled > 0.0);
  Alcotest.(check bool) "delivery in (0,1]" true
    (t.Deployment.delivery_rate > 0.0 && t.Deployment.delivery_rate <= 1.0);
  let rendered = Deployment.render_table3 t in
  if not (Astring.String.is_infix ~affix:"TABLE 3" rendered) then
    Alcotest.fail "table3 render"

let () =
  Alcotest.run "experiments"
    [
      ( "series",
        [
          Alcotest.test_case "render" `Quick test_series_render;
          Alcotest.test_case "crossover" `Quick test_series_crossover;
          Alcotest.test_case "ratio" `Quick test_series_ratio;
        ] );
      ( "catalog",
        [ Alcotest.test_case "complete" `Quick test_catalog_complete ] );
      ( "params",
        [
          Alcotest.test_case "profiles" `Quick test_params_profiles;
          Alcotest.test_case "pair rate" `Quick test_syn_pair_rate;
        ] );
      ( "runners",
        [
          Alcotest.test_case "trace point cached" `Quick test_trace_point_cached;
          Alcotest.test_case "h_hops points not aliased" `Quick
            test_h_hops_not_aliased;
          Alcotest.test_case "synthetic point memoized" `Quick
            test_synthetic_point_memo;
        ] );
      ("key", [ QCheck_alcotest.to_alcotest prop_key_total ]);
      ( "pair_ttest",
        [
          Alcotest.test_case "self comparison is null" `Quick
            test_pair_ttest_self_is_null;
          Alcotest.test_case "renders" `Quick test_pair_ttest_renders;
        ] );
      ( "optimal",
        [
          Alcotest.test_case "fig13 slice solved exactly" `Slow
            test_fig13_slice_solved_exactly;
        ] );
      ( "deployment",
        [ Alcotest.test_case "table3 shape" `Slow test_deployment_table3_shape ] );
    ]
