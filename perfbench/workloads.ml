(* The benchmark's workloads. Each one synthesizes its inputs from the
   seed (the timed set-up) and returns its cells: one [Engine.run] or one
   [Optimal.evaluate] each, together with that cell's output checks. A
   cell returns the digest of its output, which [Bench] compares
   across cycles and, for the default seed, with [Golden]. *)

open Rapid_prelude
open Rapid_trace
open Rapid_sim
module Params = Rapid_experiments.Params
module Optimal = Rapid_routing.Optimal
module Store = Rapid_store.Store
module Json = Rapid_obs.Json
module Tracer = Rapid_obs.Tracer

exception Check_failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Check_failed s)) fmt

(* What [Optimal.evaluate] did in the child process it ran in (see
   [in_child]), for the cycle to account as its own. *)
type child = {
  counters : (string * int) list;
  timers : (string * float) list;
  words : float;  (** Minor words. *)
  gc : float * float * float;
      (** Minor and major collections, promoted words. *)
  top_heap_words : int;
}

(* What the cells of one cycle share. *)
type ctx = {
  traced : bool;
  table : Layers.table;
  hooks : (string, Layers.hooks) Hashtbl.t;  (** Per protocol; traced only. *)
  store_dir : string;  (** Fresh for every cycle. *)
  mutable store : Store.t option;
  mutable evaluate_s : float list;  (** Per [Optimal.evaluate] call. *)
  mutable children : child list;
}

type cell = { id : string; run : ctx -> string }

type t = {
  name : string;
  setup : seed:int -> Layers.table -> cell list;
      (** Records [trace.gen_s], [workload.gen_s] and [workload.packets]. *)
}

let timed table name f =
  let t0 = Layers.now_s () in
  let r = f () in
  Layers.add table name (Layers.now_s () -. t0);
  r

let params = Params.get Params.Quick

(* Independent streams per (seed, part) without collisions between
   neighbouring seeds. *)
let derive seed part = (seed * 1_000_003) + part

let protocols =
  [
    ("rapid", fun () -> Rapid_core.Rapid.make_default Rapid_core.Metric.Average_delay);
    ("maxprop", fun () -> Rapid_routing.Maxprop.make ());
    ("spraywait", fun () -> Rapid_routing.Spray_wait.make ~l:12 ());
    ("prophet", fun () -> Rapid_routing.Prophet.make ());
    ("direct", Rapid_routing.Direct.make);
  ]

let protocol_names = List.map fst protocols

let generate table ~seed ~trace ~load ~size ~lifetime =
  let workload =
    timed table "workload.gen_s" (fun () ->
        Workload.generate (Rng.create seed) ~trace ~pkts_per_hour_per_dest:load
          ~size ~lifetime ())
  in
  Layers.add table "workload.packets" (float_of_int (List.length workload));
  workload

(* ------------------------------------------------------------------ *)
(* Engine cells. *)

let check_report ~workload (r : Metrics.report) =
  let n = List.length workload in
  if r.Metrics.created <> n then fail "created %d of %d packets" r.created n;
  if r.delivered > r.created then
    fail "delivered %d > created %d" r.delivered r.created;
  if not (r.utilization <= 1.0) then fail "utilization %g > 1" r.utilization

let event_metrics =
  [
    ("contact", "sim.contacts");
    ("transfer", "sim.transfers");
    ("drop", "sim.evictions");
    ("ack_purge", "sim.ack_purges");
  ]

let open_store ctx =
  match ctx.store with
  | Some s -> s
  | None ->
      let tracer =
        if ctx.traced then
          Tracer.make (function
            | Tracer.Store_write { bytes; _ } ->
                Layers.add ctx.table "store.bytes" (float_of_int bytes)
            | _ -> ())
        else Tracer.null
      in
      let s = Store.open_dir ~tracer ctx.store_dir in
      ctx.store <- Some s;
      s

(* Write the report as a cell, read it back through [Store.find] and
   [Metrics.report_of_json], and require the same report. *)
let store_round_trip ctx ~key report doc =
  timed ctx.table "store.write_s" (fun () -> Store.store (open_store ctx) ~key doc);
  Layers.add ctx.table "store.cells" 1.0;
  let back =
    timed ctx.table "store.read_s" (fun () ->
        Option.map Metrics.report_of_json (Store.find (open_store ctx) ~key))
  in
  timed ctx.table "bench.check_s" (fun () ->
      match back with
      | None -> fail "store: cell missing after write"
      | Some r ->
          (* [compare], not [=]: a zero-delivery report holds nan delays. *)
          if compare r report <> 0 then fail "store round trip changed the report")

let engine_cell ~proto ~make ~options ~trace ~workload ~store_key ctx =
  let protocol, tracer, collector =
    if ctx.traced then begin
      let h =
        match Hashtbl.find_opt ctx.hooks proto with
        | Some h -> h
        | None ->
            let h = Layers.hooks () in
            Hashtbl.add ctx.hooks proto h;
            h
      in
      let c = Tracer.Collector.create () in
      (Layers.hooked h (make ()), Tracer.Collector.tracer c, Some c)
    end
    else (make (), Tracer.null, None)
  in
  let report =
    timed ctx.table ("sim." ^ proto ^ ".run_s") (fun () ->
        (Engine.run ~options ~tracer ~protocol ~trace ~workload ()).Engine.report)
  in
  Option.iter
    (fun c ->
      List.iter
        (fun (label, n) ->
          match List.assoc_opt label event_metrics with
          | Some m -> Layers.add ctx.table m (float_of_int n)
          | None -> ())
        (Tracer.Collector.counts c))
    collector;
  let doc, json =
    timed ctx.table "bench.check_s" (fun () ->
        check_report ~workload report;
        let doc = Metrics.report_to_json report in
        (doc, Json.to_string doc))
  in
  Option.iter (fun key -> store_round_trip ctx ~key report doc) store_key;
  Digest.to_hex (Digest.string json)

let engine_cells ~names ~options ~trace ~workload ~cell_id ~store_key =
  List.filter_map
    (fun (proto, make) ->
      if not (List.mem proto names) then None
      else
        let id = cell_id proto in
        Some
          {
            id;
            run =
              engine_cell ~proto ~make ~options ~trace ~workload
                ~store_key:(store_key id);
          })
    protocols

(* ------------------------------------------------------------------ *)
(* trace-hiload: DieselNet day 1 of the quick profile (10 buses, ~21k
   packets) at the paper's top trace load (40 pkts/h/dest, 1 KB packets,
   54-min deadline, unlimited storage). The days are the fixed data set
   the quick profile replays (its base seed); the seed draws the traffic.
   Holding the day fixed is deliberate: a day's bus count moves its cost
   fourfold (7 vs 13 buses on the road), which would drown any change in
   the code. One day keeps a cycle at 5-7 s, so a 20 s run holds 3-4. *)

let trace_load = 40.0
let trace_days = [ 1 ]

let trace_hiload ~seed table =
  List.concat
    (List.map (fun day ->
         let trace =
           timed table "trace.gen_s" (fun () ->
               Dieselnet.day ~params:params.Params.dieselnet
                 ~seed:params.Params.base_seed ~day ())
         in
         let s = derive seed day in
         let workload =
           generate table ~seed:s ~trace ~load:trace_load
             ~size:params.Params.trace_packet_bytes
             ~lifetime:params.Params.trace_deadline
         in
         let options =
           {
             Engine.default_options with
             buffer_bytes = params.Params.trace_buffer_bytes;
             seed = s;
           }
         in
         engine_cells ~names:protocol_names ~options ~trace ~workload
           ~cell_id:(Printf.sprintf "day%d/%s" day)
           ~store_key:(fun id ->
             Some
               (Json.Obj
                  [
                    ("workload", Json.String "trace-hiload");
                    ("seed", Json.Int seed);
                    ("cell", Json.String id);
                  ])))
       trace_days)

(* ------------------------------------------------------------------ *)
(* synthetic-evict: the Table-4 powerlaw scenario (20 nodes, 900 s,
   100 KB opportunities) at the Figs 19-21 load, with 10 KB of storage
   per node, so nearly every creation and transfer evicts. The contact
   schedule is the quick profile's first powerlaw draw; the seed draws
   the traffic of [syn_draws] independent runs. *)

let syn_load = 20.0
let syn_buffer_bytes = List.hd params.Params.syn_buffers
let syn_draws = 1

let synthetic_evict ~seed table =
  let trace =
    timed table "trace.gen_s" (fun () ->
        Rapid_mobility.Mobility.powerlaw
          (Rng.create params.Params.base_seed)
          ~num_nodes:params.Params.syn_nodes
          ~mean_inter_meeting:params.Params.syn_mean_inter_meeting
          ~duration:params.Params.syn_duration
          ~opportunity_bytes:params.Params.syn_opportunity_bytes ())
  in
  List.concat
    (List.init syn_draws (fun run ->
         let s = derive seed run in
         let workload =
           generate table ~seed:s ~trace
             ~load:(Params.syn_pair_rate_per_hour params syn_load)
             ~size:params.Params.syn_packet_bytes
             ~lifetime:params.Params.syn_deadline
         in
         let options =
           {
             Engine.default_options with
             buffer_bytes = Some syn_buffer_bytes;
             seed = s;
           }
         in
         engine_cells ~names:[ "rapid"; "maxprop"; "spraywait" ] ~options
           ~trace ~workload
           ~cell_id:(Printf.sprintf "run%d/%s" run)
           ~store_key:(fun _ -> None)))

(* ------------------------------------------------------------------ *)
(* optimal-ilp: [Optimal.evaluate] and [Optimal.contention_free] on
   DieselNet day slices busier than fig13's, with a 50-node
   branch-and-bound budget. A single dual re-solve inside the branch and
   bound is not bounded by [max_work] (see NOTES.md, known defect), so
   each [evaluate] runs in a child process and is stopped after
   [evaluate_limit_s]; a stopped instance is tallied under
   [optimal.timeouts], never silently dropped. *)

let ilp_instances = [ (0, 0.15, 12.0); (0, 0.2, 6.0); (2, 0.15, 20.0); (2, 0.2, 6.0) ]
let ilp_draws = 3
let ilp_max_bb_nodes = 50
let evaluate_limit_s = 10.0

let how_name = function
  | Optimal.Ilp_exact -> "exact"
  | Optimal.Ilp_incumbent -> "incumbent"
  | Optimal.Bound -> "bound"

let check_verdict ~workload ~what (v : Optimal.verdict) =
  let n = List.length workload in
  if v.Optimal.created <> n then fail "%s: created %d of %d" what v.created n;
  if v.delivered > v.created then
    fail "%s: delivered %d > created %d" what v.delivered v.created

type evaluated = { verdict : Optimal.verdict; seconds : float; child : child }

(* Run [f] in a forked child; [None] when it has not answered within
   [limit] seconds (the child is then killed). However this returns or
   raises, the child has been reaped. *)
let in_child ~limit (f : unit -> evaluated) =
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let oc = Unix.out_channel_of_descr wr in
      let r = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e) in
      Marshal.to_channel oc (r : (evaluated, string) result) [];
      close_out oc;
      Unix._exit 0
  | pid ->
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      Fun.protect
        ~finally:(fun () ->
          close_in ic;
          ignore (Unix.waitpid [] pid))
        (fun () ->
          match Unix.select [ rd ] [] [] limit with
          | [], _, _ ->
              Unix.kill pid Sys.sigkill;
              None
          | _ -> Some (Marshal.from_channel ic : (evaluated, string) result))

let evaluate ~trace ~workload () =
  let g0 = Gc.quick_stat () in
  let r0 = Layers.registry () and w0 = Gc.minor_words () and t0 = Layers.now_s () in
  let verdict =
    Optimal.evaluate ~max_bb_nodes:ilp_max_bb_nodes ~trace ~workload ()
  in
  let seconds = Layers.now_s () -. t0 and words = Gc.minor_words () -. w0 in
  let counters, timers = Layers.registry_delta r0 (Layers.registry ()) in
  let g1 = Gc.quick_stat () in
  {
    verdict;
    seconds;
    child =
      {
        counters;
        timers;
        words;
        gc =
          ( float_of_int (g1.Gc.minor_collections - g0.Gc.minor_collections),
            float_of_int (g1.major_collections - g0.major_collections),
            g1.promoted_words -. g0.promoted_words );
        top_heap_words = g1.top_heap_words;
      };
  }

let optimal_cell ~trace ~workload ctx =
  let cf =
    timed ctx.table "optimal.contention_free_s" (fun () ->
        Optimal.contention_free ~trace ~workload)
  in
  let outcome =
    timed ctx.table "optimal.evaluate_total_s" (fun () ->
        in_child ~limit:evaluate_limit_s (evaluate ~trace ~workload))
  in
  Layers.add ctx.table "optimal.instances" 1.0;
  match outcome with
  | None ->
      Layers.add ctx.table "optimal.timeouts" 1.0;
      ctx.evaluate_s <- evaluate_limit_s :: ctx.evaluate_s;
      "timeout"
  | Some (Error e) -> fail "evaluate raised %s" e
  | Some (Ok e) ->
      let v = e.verdict in
      ctx.evaluate_s <- e.seconds :: ctx.evaluate_s;
      ctx.children <- e.child :: ctx.children;
      Layers.add ctx.table ("optimal." ^ how_name v.Optimal.how) 1.0;
      timed ctx.table "bench.check_s" (fun () ->
          check_verdict ~workload ~what:"contention_free" cf;
          check_verdict ~workload ~what:"evaluate" v;
          (* The contention-free delay is a lower bound on any schedule's,
             so a proven optimum may not beat it (1e-9 relative slack for
             summation order). *)
          if
            v.how = Optimal.Ilp_exact
            && not
                 (cf.Optimal.avg_delay_all
                 <= v.avg_delay_all *. (1.0 +. 1e-9))
          then
            fail "exact optimum %.17g below the contention-free bound %.17g"
              v.avg_delay_all cf.avg_delay_all;
          Digest.to_hex
            (Digest.string
               (Printf.sprintf "%s %h %d %h %d %d" (how_name v.how)
                  v.avg_delay_all v.delivered cf.avg_delay_all cf.delivered
                  v.created)))

let optimal_ilp ~seed table =
  List.concat
    (List.mapi
       (fun i (day, frac, load) ->
         let trace =
           timed table "trace.gen_s" (fun () ->
               Rapid_experiments.Fig_optimal.day_slice ~params ~day ~frac)
         in
         List.init ilp_draws (fun draw ->
             let workload =
               generate table
                 ~seed:(derive seed ((ilp_draws * i) + draw))
                 ~trace ~load ~size:params.Params.trace_packet_bytes
                 ~lifetime:params.Params.trace_deadline
             in
             {
               id = Printf.sprintf "day%d@%g/load%g/draw%d" day frac load draw;
               run = optimal_cell ~trace ~workload;
             }))
       ilp_instances)

let all =
  [
    { name = "trace-hiload"; setup = trace_hiload };
    { name = "synthetic-evict"; setup = synthetic_evict };
    { name = "optimal-ilp"; setup = optimal_ilp };
  ]
