(** The interface every routing protocol implements, plus shared helpers.

    The engine drives a contact as follows:
    + {!S.on_contact} — the protocol observes the meeting, updates its
      inference state, plans its send queues for both directions
      ({!Send_queue}), and returns the control-channel bytes it spent
      (charged against the transfer opportunity);
    + direct delivery and replication: the engine alternates directions,
      repeatedly asking {!S.next_packet} for the sender's best next packet
      that fits the remaining byte budget. Protocols must not offer a
      packet twice in the same contact ({!Send_queue}'s cursor tracks
      this) and should offer packets destined to the receiver first
      (Protocol rapid, step 2). Offering a packet the peer already holds
      is legal but wasteful: the engine charges the bytes and the receiver
      discards the copy (how the summary-vector-less Random baseline
      behaves); protocols with any control channel avoid it via
      {!Env.has_packet}.
    + {!S.on_transfer} confirms each replication/delivery, letting the
      protocol update replica bookkeeping and create acknowledgments.

    Storage policy: when a transfer or a fresh packet does not fit, the
    engine asks {!S.drop_candidate} which buffered packet to evict, until
    it fits or the protocol answers [None] (refuse the incoming packet). *)

(** Everything the engine tells a protocol about one meeting, in a single
    record (one value to thread, extensible without touching all eight
    protocol implementations). *)
type contact_info = {
  now : float;
  a : int;
  b : int;  (** The two meeting nodes. *)
  budget : int;  (** Capacity of the opportunity, in bytes. *)
  meta_budget : int option;
      (** Administrator cap on control metadata for this contact
          (the Fig. 8 knob); [None] = the protocol's own policy. *)
  meta_ok : bool;
      (** False when fault injection lost the metadata exchange. *)
}

module type S = sig
  type t

  val name : string
  val create : Env.t -> t

  val on_created : t -> now:float -> Packet.t -> unit
  (** The packet has just entered its source's buffer. *)

  val on_contact : t -> contact_info -> int
  (** Observe a meeting of capacity [budget] bytes; return metadata bytes
      consumed (will be clamped to [meta_budget] if given, then to
      [budget]). When [meta_ok] is false the metadata exchange is lost
      (fault injection): the protocol may still record first-hand
      observations of the meeting itself (meeting times, encounter
      probabilities) but must not exchange state with the peer (replica
      tables, ack sets, delivery-predictability vectors) and should
      return 0 — the engine forces the charge to 0 regardless. *)

  val next_packet :
    t -> now:float -> sender:int -> receiver:int -> budget:int -> Packet.t option
  (** Best next packet to replicate from [sender] to [receiver], of size
      <= [budget], present in [sender]'s buffer, absent at [receiver], and
      not previously offered in this contact. [None] ends this direction. *)

  val on_transfer :
    t -> now:float -> sender:int -> receiver:int -> Packet.t -> delivered:bool -> unit

  val drop_candidate : t -> now:float -> node:int -> incoming:Packet.t -> Packet.t option
  (** Choose a buffered victim at [node] to make room for [incoming];
      [None] refuses [incoming] instead. *)

  val on_dropped : t -> now:float -> node:int -> Packet.t -> unit

  val on_reboot : t -> now:float -> node:int -> lost:Packet.t list -> unit
  (** [node] rebooted (fault injection): the engine has already wiped its
      buffer, losing the copies in [lost] (no drop metrics are recorded —
      a reboot is not a storage decision). The protocol must forget that
      node's soft state: per-node inference rows, ack sets, tickets for
      copies it no longer holds. Other nodes' beliefs {e about} [node]
      are deliberately kept — peers cannot observe the reboot. *)
end

type packed = (module S)

(** Per-node acknowledgment stores with flooding semantics: once any node
    learns a packet was delivered, it propagates the ack at every contact
    and purges buffered copies (the mechanism MaxProp introduced and RAPID
    adopts, §4.2). Exchanges walk per-pair watermarked ack logs, so a
    meeting costs the number of acks learned since the pair last met, not
    the size of both full sets. *)
module Ack_store : sig
  type t

  val create : num_nodes:int -> t
  val learn : t -> node:int -> packet_id:int -> unit
  val knows : t -> node:int -> packet_id:int -> bool

  val reset_node : t -> node:int -> unit
  (** Forget everything [node] knows (reboot support). *)

  val exchange : t -> a:int -> b:int -> int
  (** Union the two nodes' ack sets; returns how many entries were new to
      either side (for metadata accounting). *)

  val purge :
    t -> Env.t -> now:float -> node:int -> on_purge:(Packet.t -> unit) -> unit
  (** Remove from [node]'s buffer every packet it knows to be delivered,
      except a source's own undelivered packets are never purged —
      guaranteed trivially because acks exist only for delivered packets.
      Each removal is reported through [Env.on_ack_purge] (at [now]) so
      the engine's metrics see it; removals (and [on_purge] calls) run in
      descending packet id order. *)
end

val split_direct :
  receiver:int -> Buffer.entry list -> Buffer.entry list * Buffer.entry list
(** Partition candidates into (destined to receiver, the rest). *)
