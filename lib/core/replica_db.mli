(** A node's view of where packet replicas live (§4.2).

    "For each encountered packet i, rapid maintains a list of nodes that
    carry the replica of i, and for each replica, an estimated time for
    direct delivery" — here represented by the holder's meeting count
    n_j(i) (its buffer position over its expected transfer size), which
    combined with the meeting matrix yields the direct-delivery estimate.

    Entries are timestamped so the in-band control channel can ship only
    what changed since the last exchange with a given peer, and so that a
    receiver merges only strictly fresher information (stale gossip never
    overwrites newer observations). *)

type holder = { n_meet : int; updated_at : float }

type entry = {
  packet : Rapid_sim.Packet.t;
  holder_id : int;
  holder : holder;
}

type t

val create : unit -> t

val set_holder :
  t -> packet:Rapid_sim.Packet.t -> holder_id:int -> n_meet:int -> now:float -> unit
(** First-hand knowledge: records/overwrites unconditionally. *)

val merge :
  t -> packet:Rapid_sim.Packet.t -> holder_id:int -> holder:holder -> bool
(** Gossip: applied only if strictly fresher than what is known; returns
    whether it was applied. *)

val remove_holder : t -> packet_id:int -> holder_id:int -> unit
(** Local knowledge of a drop; removals are not gossiped (the resulting
    staleness at other nodes is the imprecision §4.2 accepts). *)

val remove_packet : t -> packet_id:int -> unit
(** Forget the packet entirely (ack received: "metadata for delivered
    packets is deleted when an ack is received"). *)

val holders : t -> packet_id:int -> (int * holder) list
(** Sorted by holder id. *)

val find_holder : t -> packet_id:int -> holder_id:int -> holder option

val fold_holders :
  t -> packet_id:int -> init:'a -> f:('a -> int -> holder -> 'a) -> 'a
(** Fold over a packet's holders without sorting (hot path; iteration
    order is deterministic for a given update sequence). *)

val holder_count : t -> packet_id:int -> int
(** Number of believed holders; 0 when the packet is unknown. *)

val known_packet : t -> packet_id:int -> Rapid_sim.Packet.t option

val iter_ids_since :
  t -> float -> (packet_id:int -> holder_id:int -> unit) -> unit
(** Walk the (packet id, holder id) pairs of the update-log suffix newer
    than the threshold (a binary search finds the boundary): duplicates
    and superseded or forgotten pairs included, nothing looked up. The
    retained history is bounded (several thousand updates): peers that
    have not exchanged for a very long time receive a truncated,
    bounded-staleness delta. *)

type delta_scratch
(** Reused working memory of {!ship_delta}; one per caller. *)

val delta_scratch : unit -> delta_scratch

val ship_delta :
  delta_scratch ->
  t ->
  num_nodes:int ->
  since:float ->
  eligible:(int -> bool) ->
  backlog:int Rapid_prelude.Sortbuf.t ->
  budget:int ->
  ship:(Rapid_sim.Packet.t -> holder_id:int -> holder -> unit) ->
  int
(** One direction of the control channel's replica delta (§4.2). The
    candidates are the [backlog] keys (entries a previous budget cut left
    unsent, re-checked against the current db with no threshold) plus
    every pair updated after [since], deduplicated, restricted to packets
    [eligible] accepts (by packet id). The [budget] oldest candidates,
    by (updated_at, packet id, holder id), are passed to [ship] in that
    order with their current holder info; [backlog] is overwritten with
    the keys of the rest. A key is [packet_id * num_nodes + holder_id].
    Returns the number shipped. Allocates nothing per candidate once the
    scratch has grown. *)

val entries_since : t -> float -> entry list
(** The distinct pairs of the {!iter_ids_since} walk still stored and
    updated after the threshold, materialized from the current db state,
    approximately newest first. *)

val size : t -> int
(** Total holder entries stored. *)
