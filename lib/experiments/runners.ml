open Rapid_prelude
open Rapid_trace
open Rapid_sim
open Rapid_core
module Pool = Rapid_par.Pool
module Faults = Rapid_faults.Faults
module Store = Rapid_store.Store
module Json = Rapid_obs.Json

type protocol =
  | Rapid of Rapid.params
  | Maxprop
  | Spray_wait of int
  | Prophet
  | Random of { acks : bool }
  | Epidemic
  | Direct

type protocol_spec = { label : string; protocol : protocol }

let make = function
  | Rapid p -> Rapid.make p
  | Maxprop -> Rapid_routing.Maxprop.make ()
  | Spray_wait l -> Rapid_routing.Spray_wait.make ~l ()
  | Prophet -> Rapid_routing.Prophet.make ()
  | Random { acks } -> Rapid_routing.Random_protocol.make ~with_acks:acks ()
  | Epidemic -> Rapid_routing.Epidemic.make ()
  | Direct -> Rapid_routing.Direct.make ()

let rapid metric =
  { label = "RAPID"; protocol = Rapid (Rapid.default_params metric) }

let maxprop = { label = "MaxProp"; protocol = Maxprop }
let spray_wait = { label = "SprayWait"; protocol = Spray_wait 12 }
let prophet = { label = "Prophet"; protocol = Prophet }
let random = { label = "Random"; protocol = Random { acks = false } }
let random_acks = { label = "Random+acks"; protocol = Random { acks = true } }
let epidemic = { label = "Epidemic"; protocol = Epidemic }
let direct = { label = "Direct"; protocol = Direct }
let comparison_set metric = [ rapid metric; maxprop; spray_wait; random ]

type point = Metrics.report list

(* A day with zero deliveries reports [nan] delays (see Metrics); skip
   non-finite samples so they cannot poison a figure's mean. *)
let mean_of point f =
  match List.filter Float.is_finite (List.map f point) with
  | [] -> nan
  | xs -> Stats.mean xs

let trace_day ~(params : Params.t) ~day =
  Dieselnet.day ~params:params.Params.dieselnet ~seed:params.Params.base_seed
    ~day ()

let trace_workload ~(params : Params.t) ~trace ~load ~day =
  let rng = Rng.create ((params.Params.base_seed * 65537) + day) in
  Workload.generate rng ~trace ~pkts_per_hour_per_dest:load
    ~size:params.Params.trace_packet_bytes
    ~lifetime:params.Params.trace_deadline ()

(* ------------------------------------------------------------------ *)
(* Point specs: the non-default knobs of a figure point, folded into one
   record instead of a sprawl of per-call optional arguments. *)

type buffer_spec = Profile_default | Unlimited | Bytes of int

type point_spec = {
  meta_cap_frac : float option;
  buffer : buffer_spec;
  deployment_noise : bool;
  faults : Faults.config;
}

let default_spec =
  {
    meta_cap_frac = None;
    buffer = Profile_default;
    deployment_noise = false;
    faults = Faults.none;
  }

type model = Trace_days | Synthetic of [ `Powerlaw | `Exponential ]
type point_desc = {
  proto : protocol;
  model : model;
  load : float;
  spec : point_spec;
}

let buffer_bytes (params : Params.t) model = function
  | Profile_default -> (
      match model with
      | Trace_days -> params.Params.trace_buffer_bytes
      | Synthetic _ -> Some params.Params.syn_buffer_bytes)
  | Unlimited -> None
  | Bytes b -> Some b

(* All-zero-rate configs run the plain engine whatever their seed, so a
   "faulted at severity 0" point shares its cell with plain points. *)
let canonical_faults f = if Faults.is_none f then Faults.none else f

let options ~params ~model (spec : point_spec) ~seed =
  {
    Engine.buffer_bytes = buffer_bytes params model spec.buffer;
    meta_cap_frac = spec.meta_cap_frac;
    seed;
    faults = canonical_faults spec.faults;
  }

(* ------------------------------------------------------------------ *)
(* The point key: every input a point's reports depend on, derived from
   the point itself. Each record is destructured field by field, so a
   field added to any of them does not compile until it is keyed here.
   [point_schema] versions the key and payload shapes; bump it when
   either changes so stale cells become unreachable rather than wrong. *)

let point_schema = 2

let opt f = function Some x -> f x | None -> Json.Null

let protocol_key = function
  | Rapid
      {
        Rapid.metric;
        channel;
        use_acks;
        ack_entry_bytes;
        table_entry_bytes;
        packet_entry_bytes;
        h_hops;
        meta_self_cap_frac;
        tracer = _;
      } ->
      let knobs =
        [
          ("metric", Json.String (Metric.to_string metric));
          ("channel", Json.String (Control_channel.to_string channel));
          ("use_acks", Json.Bool use_acks);
          ("ack_entry_bytes", Json.Int ack_entry_bytes);
          ("table_entry_bytes", Json.Int table_entry_bytes);
          ("packet_entry_bytes", Json.Int packet_entry_bytes);
          ("h_hops", Json.Int h_hops);
          ("meta_self_cap_frac", Json.Float meta_self_cap_frac);
        ]
      in
      Json.Obj [ ("rapid", Json.Obj knobs) ]
  | Maxprop -> Json.String "maxprop"
  | Spray_wait l -> Json.Obj [ ("spray_wait", Json.Int l) ]
  | Prophet -> Json.String "prophet"
  | Random { acks } -> Json.Obj [ ("random", Json.Bool acks) ]
  | Epidemic -> Json.String "epidemic"
  | Direct -> Json.String "direct"

let key (params : Params.t) { proto; model; load; spec } =
  let {
    Params.profile = _;
    dieselnet =
      {
        Dieselnet.fleet_size;
        mean_scheduled;
        num_routes;
        day_seconds;
        meetings_per_day;
        mean_contact_bytes;
      };
    days;
    trace_loads = _;
    trace_packet_bytes;
    trace_deadline;
    trace_buffer_bytes = _ (* keyed resolved, as [buffer_bytes] *);
    syn_nodes;
    syn_duration;
    syn_mean_inter_meeting;
    syn_opportunity_bytes;
    syn_buffer_bytes = _ (* keyed resolved, as [buffer_bytes] *);
    syn_packet_bytes;
    syn_deadline;
    syn_loads = _;
    syn_buffers = _;
    syn_runs;
    base_seed;
  } =
    params
  in
  let { meta_cap_frac; buffer; deployment_noise; faults } = spec in
  let {
    Faults.seed;
    reboots_per_node;
    truncate_prob;
    meta_drop_prob;
    contact_drop_prob;
  } =
    canonical_faults faults
  in
  let model_key =
    match model with
    | Trace_days ->
        [
          ("days", Json.Int days);
          ("packet_bytes", Json.Int trace_packet_bytes);
          ("deadline", Json.Float trace_deadline);
          ( "dieselnet",
            Json.Obj
              [
                ("fleet_size", Json.Int fleet_size);
                ("mean_scheduled", Json.Int mean_scheduled);
                ("num_routes", Json.Int num_routes);
                ("day_seconds", Json.Float day_seconds);
                ("meetings_per_day", Json.Float meetings_per_day);
                ("mean_contact_bytes", Json.Float mean_contact_bytes);
              ] );
        ]
    | Synthetic mobility ->
        [
          ( "mobility",
            Json.String
              (match mobility with
              | `Powerlaw -> "powerlaw"
              | `Exponential -> "exponential") );
          ("runs", Json.Int syn_runs);
          ("nodes", Json.Int syn_nodes);
          ("duration", Json.Float syn_duration);
          ("mean_inter_meeting", Json.Float syn_mean_inter_meeting);
          ("opportunity_bytes", Json.Int syn_opportunity_bytes);
          ("packet_bytes", Json.Int syn_packet_bytes);
          ("deadline", Json.Float syn_deadline);
        ]
  in
  Json.Obj
    [
      ("point_schema", Json.Int point_schema);
      ("protocol", protocol_key proto);
      ("model", Json.Obj model_key);
      ("base_seed", Json.Int base_seed);
      ("load", Json.Float load);
      ("meta_cap_frac", opt (fun f -> Json.Float f) meta_cap_frac);
      ( "buffer_bytes",
        opt (fun b -> Json.Int b) (buffer_bytes params model buffer) );
      ("deployment_noise", Json.Bool deployment_noise);
      ( "faults",
        Json.Obj
          [
            ("seed", Json.Int seed);
            ("reboots_per_node", Json.Float reboots_per_node);
            ("truncate_prob", Json.Float truncate_prob);
            ("meta_drop_prob", Json.Float meta_drop_prob);
            ("contact_drop_prob", Json.Float contact_drop_prob);
          ] );
    ]

(* ------------------------------------------------------------------ *)
(* Cells: each day or seed is independent — trace, workload and engine
   seed all derive from (base_seed, day or run) — so the pool fan-out is
   bit-identical to the sequential List.init. *)

let trace_cell ?tracer ~(params : Params.t) ~protocol ~load ~spec day =
  let trace = trace_day ~params ~day in
  let trace =
    if spec.deployment_noise then
      let rng = Rng.create ((params.Params.base_seed * 31) + day) in
      Dieselnet.with_deployment_noise rng trace
    else trace
  in
  let workload = trace_workload ~params ~trace ~load ~day in
  (Engine.run ?tracer
     ~options:
       (options ~params ~model:Trace_days spec
          ~seed:(params.Params.base_seed + day))
     ~protocol:(make protocol) ~trace ~workload ())
    .Engine.report

let synthetic_cell ~(params : Params.t) ~protocol ~mobility ~load ~spec run =
  let seed = params.Params.base_seed + (1000 * run) in
  let rng = Rng.create seed in
  let num_nodes = params.Params.syn_nodes
  and mean_inter_meeting = params.Params.syn_mean_inter_meeting
  and duration = params.Params.syn_duration
  and opportunity_bytes = params.Params.syn_opportunity_bytes in
  let trace =
    match mobility with
    | `Powerlaw ->
        Rapid_mobility.Mobility.powerlaw rng ~num_nodes ~mean_inter_meeting
          ~duration ~opportunity_bytes ()
    | `Exponential ->
        Rapid_mobility.Mobility.exponential rng ~num_nodes ~mean_inter_meeting
          ~duration ~opportunity_bytes
  in
  let workload =
    Workload.generate rng ~trace
      ~pkts_per_hour_per_dest:(Params.syn_pair_rate_per_hour params load)
      ~size:params.Params.syn_packet_bytes
      ~lifetime:params.Params.syn_deadline ()
  in
  (Engine.run
     ~options:(options ~params ~model:(Synthetic mobility) spec ~seed)
     ~protocol:(make protocol) ~trace ~workload ())
    .Engine.report

let compute ~(params : Params.t) { proto; model; load; spec } =
  match model with
  | Trace_days ->
      Pool.init params.Params.days
        (trace_cell ~params ~protocol:proto ~load ~spec)
  | Synthetic mobility ->
      Pool.init params.Params.syn_runs
        (synthetic_cell ~params ~protocol:proto ~mobility ~load ~spec)

(* ------------------------------------------------------------------ *)
(* One memo, keyed by the store digest of [key], in front of the
   optional persistent store ([--cache-dir]). Both are touched from
   pool workers (fig drivers may themselves run on workers, and the pool
   makes no promise about which domain executes a task), so both sit
   behind [cache_lock]. *)

let cache_lock = Mutex.create ()
let memo : (string, point) Hashtbl.t = Hashtbl.create 64
let session_store : Store.t option ref = ref None

let set_cache_dir = function
  | None -> Mutex.protect cache_lock (fun () -> session_store := None)
  | Some dir ->
      (* Open outside the lock: creating directories can be slow. *)
      let s = Store.open_dir dir in
      Mutex.protect cache_lock (fun () -> session_store := Some s)

let cache_store () = Mutex.protect cache_lock (fun () -> !session_store)

let reset_point_cache () =
  Mutex.protect cache_lock (fun () ->
      Hashtbl.reset memo;
      (* Also drop the store handle: a test that reset the caches must
         not silently resurrect points from an earlier [set_cache_dir]. *)
      session_store := None)

let point_to_json pt = Json.List (List.map Metrics.report_to_json pt)

let point_of_json = function
  | Json.List l -> List.map Metrics.report_of_json l
  | _ -> invalid_arg "Runners.point_of_json: payload is not a list"

(* A cell that parses and checksums but no longer decodes (payload shape
   drift without a point_schema bump) degrades to a recompute, exactly
   like a checksum failure. *)
let store_find_point s key =
  match Store.find s ~key with
  | None -> None
  | Some payload -> (
      match point_of_json payload with
      | pt -> Some pt
      | exception Invalid_argument reason ->
          Store.note_corrupt s ~key ~reason;
          None)

let find_or_run ~params desc =
  let key = key params desc in
  let digest = Store.digest_of_key key in
  match Mutex.protect cache_lock (fun () -> Hashtbl.find_opt memo digest) with
  | Some pt -> pt
  | None ->
      let store = cache_store () in
      let pt =
        match Option.bind store (fun s -> store_find_point s key) with
        | Some pt -> pt
        | None ->
            (* Computed outside the lock (a point is seconds of
               simulation); a racing duplicate computation produces the
               identical value, so a lost replace is harmless — as is a
               racing store write, thanks to the atomic rename. *)
            let pt = compute ~params desc in
            Option.iter (fun s -> Store.store s ~key (point_to_json pt)) store;
            pt
      in
      Mutex.protect cache_lock (fun () -> Hashtbl.replace memo digest pt);
      pt

let run_trace_point ~params ~protocol ~load ?(spec = default_spec) () =
  find_or_run ~params
    { proto = protocol.protocol; model = Trace_days; load; spec }

let run_synthetic_point ~params ~protocol ~mobility ~load
    ?(spec = default_spec) () =
  find_or_run ~params
    { proto = protocol.protocol; model = Synthetic mobility; load; spec }
