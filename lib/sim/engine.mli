(** The trace-driven discrete-event simulator (§5.3).

    Takes "a schedule of node meetings, the bandwidth available at each
    meeting, and a routing algorithm" and executes the protocol over the
    trace, enforcing feasibility centrally: the bytes moved during a
    meeting (data + control metadata) never exceed the opportunity size,
    and node storage never exceeds its capacity. Packets remaining after
    the trace horizon are undelivered (each trace is one experiment). *)

type options = {
  buffer_bytes : int option;  (** Per-node storage; [None] = unlimited. *)
  meta_cap_frac : float option;
      (** Cap on control metadata per contact, as a fraction of the
          opportunity (the Fig. 8 knob); [None] = unrestricted. *)
  seed : int;  (** Seed for protocol-visible randomness. *)
  faults : Rapid_faults.Faults.config;
      (** Fault injection (reboots, truncated contacts, lossy metadata,
          contact no-shows); [Faults.none] — the default — makes the run
          bit-identical to an engine without the fault layer. The fault
          stream is drawn up front from [(faults.seed, seed, trace)], so
          reports are byte-identical across [--jobs] settings. *)
}

val default_options : options

type result = { report : Metrics.report; env : Env.t }
(** One run's outcome: the measured report plus the final environment
    (tests use [env] to check conservation invariants; most callers read
    only [report]). *)

val run :
  ?options:options ->
  ?tracer:Rapid_obs.Tracer.t ->
  protocol:Protocol.packed ->
  trace:Rapid_trace.Trace.t ->
  workload:Rapid_trace.Workload.spec list ->
  unit ->
  result
(** The single engine entry point. [workload] must be sorted by creation
    time with finite times (packet ids are handed out in list order);
    otherwise [Invalid_argument] names the first offending spec. [tracer]
    receives a structured event
    per contact, transfer, delivery, drop, ack purge and per-contact
    metadata total; the default null tracer is free (emission sites do
    not even build the event). *)
