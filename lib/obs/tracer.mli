(** Pluggable structured run tracing.

    The engine and RAPID emit one {!event} per simulation-level
    occurrence: contact observed, bytes transferred, packet delivered,
    packet evicted, ack-driven purge, metadata spent. A tracer is just a
    sink for those events; the default {!null} tracer drops them without
    allocating (emission sites guard on {!enabled} before building the
    event), so tracing costs nothing unless a sink is installed.

    Two sinks ship with the library: {!Collector} (in-memory counts plus
    a bounded event log, convertible to JSON) and {!Jsonl} (streams each
    event as one JSON line to a channel, for offline analysis of full
    runs). Anything else can be plugged via {!make}. *)

type event =
  | Contact of { time : float; a : int; b : int; bytes : int }
      (** A transfer opportunity of [bytes] capacity was observed. *)
  | Metadata of { time : float; a : int; b : int; bytes : int; kind : string }
      (** Control-channel spend; [kind] distinguishes the engine's
          per-contact total ["total"] from protocol-level breakdowns
          (e.g. RAPID's ["acks"], ["table"], ["entries"]). *)
  | Transfer of {
      time : float;
      sender : int;
      receiver : int;
      packet : int;
      bytes : int;
      delivered : bool;
    }  (** Data bytes charged against the opportunity. *)
  | Delivery of { time : float; packet : int; delay : float }
      (** First arrival at the destination. *)
  | Drop of { time : float; node : int; packet : int }
      (** Storage eviction chosen by the protocol. *)
  | Ack_purge of { time : float; node : int; packet : int }
      (** Buffered copy cleared because an ack proved it delivered. *)
  | Reboot of { time : float; node : int; lost : int }
      (** Fault injection: [node] rebooted, losing [lost] buffered
          copies and its protocol soft state. *)
  | Contact_suppressed of { time : float; a : int; b : int }
      (** Fault injection: a recorded contact never happened. *)
  | Contact_truncated of {
      time : float;
      a : int;
      b : int;
      bytes : int;
      effective : int;
    }
      (** Fault injection: the contact's recorded [bytes] capacity was
          cut to [effective]. *)
  | Metadata_dropped of { time : float; a : int; b : int }
      (** Fault injection: the contact's metadata exchange was lost. *)
  | Store_hit of { digest : string }
      (** Result store: a cell was read back in place of a recompute. *)
  | Store_miss of { digest : string }
      (** Result store: no cell for this key; the caller recomputes. *)
  | Store_write of { digest : string; bytes : int }
      (** Result store: a cell of [bytes] was atomically written. *)
  | Store_corrupt of { digest : string; reason : string }
      (** Result store: a cell failed parse/checksum validation and was
          treated as a miss (recompute-and-overwrite, never fatal). *)

type t

val null : t
(** Drops everything; the default wherever a tracer is accepted. *)

val make : (event -> unit) -> t

val enabled : t -> bool
(** [false] only for {!null}. Emission sites check this before
    constructing an event so the null tracer never allocates. *)

val emit : t -> event -> unit
(** No-op on {!null}. *)

val event_label : event -> string
(** Constructor name in snake case: ["contact"], ["metadata"], ... *)

val event_to_json : event -> Json.t

(** In-memory sink: per-label counts plus the first [keep_events] events
    verbatim (default 0 — counts only). *)
module Collector : sig
  type tracer := t
  type t

  val create : ?keep_events:int -> unit -> t
  val tracer : t -> tracer

  val counts : t -> (string * int) list
  (** Sorted by label. *)

  val events : t -> event list
  (** In emission order. *)

  val total : t -> int
  (** Events seen, including beyond the cap. *)

  val to_json : t -> Json.t
end

(** Streaming sink: one compact JSON object per line, byte-identical to
    [Json.to_string (event_to_json ev)] plus a newline. The caller owns
    the channel (and its flushing/closing). A sink renders through one
    reused buffer, so it must be fed from one domain at a time. *)
module Jsonl : sig
  val tracer : out_channel -> t
end
