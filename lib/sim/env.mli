(** Shared simulation state visible to protocols.

    Buffers model the per-node summary-vector knowledge any DTN protocol
    obtains for free during a contact handshake: at a meeting, a protocol
    may consult {!has_packet} for its *peer* to avoid pushing duplicates.
    Global state beyond that (e.g. replica locations network-wide) must be
    learned through each protocol's own control channel — except for
    explicitly "oracle" variants such as RAPID's instant global channel
    (§6.2.3), which read it deliberately. *)

type t = {
  num_nodes : int;
  duration : float;  (** Experiment horizon. *)
  buffers : Buffer.t array;  (** Indexed by node id. *)
  delivered : (int, float) Hashtbl.t;  (** Packet id -> delivery time. *)
  rng : Rapid_prelude.Rng.t;  (** Protocol-visible randomness. *)
  mutable on_ack_purge : now:float -> node:int -> Packet.t -> unit;
      (** Notification that a buffered copy was cleared because an ack
          proved it delivered. Protocols must invoke it on every
          ack-driven purge ({!Protocol.Ack_store.purge} does so
          automatically); the engine points it at
          {!Metrics.record_ack_purge} and the run tracer, so purges are
          accounted exactly once, in one place. Defaults to a no-op. *)
}

val create :
  num_nodes:int -> duration:float -> buffer_capacity:int option ->
  seed:int -> t

val is_delivered : t -> int -> bool

val has_packet : t -> node:int -> packet:Packet.t -> bool
(** True if the node buffers the packet, or the node is the packet's
    destination and the packet has been delivered (destinations keep
    delivered packets; §3.1). *)

val buffered_entries : t -> int -> Buffer.entry list
(** The node's buffer sorted by packet id ({!Buffer.entries}: one sort
    per call). *)
