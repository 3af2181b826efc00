(** Remnant of the removed believed-rate cache. Eq. 9 now folds over a
    packet's believed holders on every call (see {!Rapid}). *)

val register_counters : unit -> unit
(** A no-op. It remains only because the benchmark harness
    ([perfbench/bench.ml]) calls it at startup; it registers nothing. *)
