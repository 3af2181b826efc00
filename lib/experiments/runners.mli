(** Shared machinery for the figure reproductions: protocol zoo, workload
    construction, and averaging over trace days / seeds.

    Point runners fan their independent day/seed cells out through
    [Rapid_par.Pool] (the global pool; sequential unless the CLI set
    [--jobs]). Every cell derives its RNGs from explicit seeds, so a
    parallel point is bit-identical to a sequential one. *)

(** A protocol configuration as data: everything its runs depend on. *)
type protocol =
  | Rapid of Rapid_core.Rapid.params
      (** The tracer field is not part of the configuration: it only
          observes. *)
  | Maxprop
  | Spray_wait of int  (** Initial copy budget L. *)
  | Prophet
  | Random of { acks : bool }
  | Epidemic
  | Direct

type protocol_spec = {
  label : string;  (** Line label in the rendered figure. *)
  protocol : protocol;
}

val make : protocol -> Rapid_sim.Protocol.packed
(** A fresh protocol instance for one run. *)

val rapid : Rapid_core.Metric.t -> protocol_spec
(** ["RAPID"] with {!Rapid_core.Rapid.default_params}. *)

val maxprop : protocol_spec
val spray_wait : protocol_spec
val prophet : protocol_spec
val random : protocol_spec
val random_acks : protocol_spec
val epidemic : protocol_spec
val direct : protocol_spec

val comparison_set : Rapid_core.Metric.t -> protocol_spec list
(** RAPID (with the given metric), MaxProp, Spray-and-Wait, Random — the
    four lines of Figs. 4–7 and 16–24. *)

type point = Rapid_sim.Metrics.report list
(** One report per day/seed replication. *)

val mean_of : point -> (Rapid_sim.Metrics.report -> float) -> float
(** Mean of [f] over the point's reports, skipping non-finite samples
    (a zero-delivery day reports [nan] delays); [nan] when no sample is
    finite. *)

(** Storage override for one point. *)
type buffer_spec =
  | Profile_default  (** The profile's trace/synthetic buffer setting. *)
  | Unlimited
  | Bytes of int

type point_spec = {
  meta_cap_frac : float option;
      (** Administrator metadata cap (the Fig. 8 knob); [None] leaves the
          protocol's own policy in charge. *)
  buffer : buffer_spec;
  deployment_noise : bool;
      (** Apply the Table-3 deployment-imperfection layer to each trace
          day (trace points only). *)
  faults : Rapid_faults.Faults.config;
      (** Fault injection for this point; [Faults.none] (the default)
          runs the plain engine. All-zero-rate configs are canonicalized
          to [Faults.none] before keying, so a "severity 0" point aliases
          the plain one. *)
}

val default_spec : point_spec
(** No cap, profile buffers, no noise — override fields as needed:
    [{ default_spec with buffer = Bytes b }]. *)

(** The workload model a point runs on. *)
type model =
  | Trace_days  (** The profile's DieselNet days. *)
  | Synthetic of [ `Powerlaw | `Exponential ]
      (** The profile's Table-4 scenario over [syn_runs] seeds. *)

type point_desc = {
  proto : protocol;
  model : model;
  load : float;
  spec : point_spec;
}
(** Everything that identifies a point, next to the profile. *)

val point_schema : int
(** Version of the key and payload shapes (2). Bumping it orphans every
    stored cell. *)

val key : Params.t -> point_desc -> Rapid_obs.Json.t
(** The point's total key: the protocol configuration, the resolved
    point (load, meta cap, buffer bytes after profile resolution, noise,
    canonicalized faults) and the workload model's profile inputs (days
    and the DieselNet record for trace points; mobility and the [syn_*]
    fields for synthetic ones) plus the base seed, so points whose
    reports differ never share a key. Its
    {!Rapid_store.Store.digest_of_key} addresses both the in-process
    memo and the persistent store. *)

val run_trace_point :
  params:Params.t ->
  protocol:protocol_spec ->
  load:float ->
  ?spec:point_spec ->
  unit ->
  point
(** Run the protocol over the profile's DieselNet days at the given load
    (packets/hour/destination), with the profile's packet size, deadline
    and buffers unless [spec] overrides them. Memoized per process under
    {!key} (the label plays no part), in front of the store installed by
    {!set_cache_dir}. *)

val run_synthetic_point :
  params:Params.t ->
  protocol:protocol_spec ->
  mobility:[ `Powerlaw | `Exponential ] ->
  load:float ->
  ?spec:point_spec ->
  unit ->
  point
(** Run the profile's Table-4 synthetic scenario over [syn_runs] seeds;
    [load] is packets per 50 s per destination. [spec.deployment_noise]
    is ignored (it is a trace-layer effect). Memoized like
    {!run_trace_point}. *)

val trace_cell :
  ?tracer:Rapid_obs.Tracer.t ->
  params:Params.t ->
  protocol:protocol ->
  load:float ->
  spec:point_spec ->
  int ->
  Rapid_sim.Metrics.report
(** One day of a trace point, run live (no cache): the cell
    {!run_trace_point} fans out over days. [tracer] receives the day's
    engine events. *)

val reset_point_cache : unit -> unit
(** Drop every memoized point (trace and synthetic) AND the session's
    persistent store handle (tests use this to force live runs and
    isolate cache state). *)

val set_cache_dir : string option -> unit
(** Attach a persistent {!Rapid_store.Store} under the given directory
    (created if missing) to the point runners: subsequent
    {!run_trace_point} / {!run_synthetic_point} calls consult it before
    computing and write each freshly computed point back, so interrupted
    sweeps resume where they left off. [None] (the default state)
    disables the store. Safe under [--jobs N]: the handle is shared and
    internally locked, and cell writes are atomic. *)

val cache_store : unit -> Rapid_store.Store.t option
(** The session store installed by {!set_cache_dir}, if any (the CLI
    uses this to print store traffic after a cached run). *)

val trace_day :
  params:Params.t -> day:int -> Rapid_trace.Trace.t
(** Day [day] of the profile's DieselNet (seeded deterministically). *)

val trace_workload :
  params:Params.t ->
  trace:Rapid_trace.Trace.t ->
  load:float ->
  day:int ->
  Rapid_trace.Workload.spec list
