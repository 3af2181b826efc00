(** Learned expected inter-meeting times (§4.1.2).

    "Every node tabulates the average time to meet every other node based
    on past meeting times. Nodes exchange this table as part of metadata
    exchanges... The matrix contains the expected time for two nodes to
    meet directly, calculated as the average of past meetings."

    E(M_XZ) is estimated as the expected time for X to meet Z in at most
    [h] hops (default 3, as in the paper's implementation): if X never met
    Z directly, the estimate is the cheapest sum of direct averages along
    a path of <= h hops; infinity when no such path exists.

    Simplification (documented in DESIGN.md §4): the implementation keeps
    one shared learned matrix rather than per-node copies — meeting-time
    observations are symmetric, flow on every contact, and converge to the
    same table; the in-band control channel still *charges* for table
    entries, but all nodes read the converged view. The first observed gap
    for a pair is measured from the trace start, seeding estimates
    early. *)

type t

val create : num_nodes:int -> t

val observe : t -> now:float -> a:int -> b:int -> unit
(** Record a meeting between [a] and [b] at time [now]. *)

val direct_mean : t -> int -> int -> float option
(** Average observed inter-meeting time, if the pair ever met. *)

val expected_meeting_time : ?h:int -> t -> int -> int -> float
(** E(M_XZ) with up-to-[h]-hop transitivity (default 3); [infinity] if
    unreachable. The [h]-hop closure is cached and recomputed lazily. *)

val row : ?h:int -> t -> int -> float array
(** The up-to-date ≤[h]-hop row keyed on the given node — the array
    [expected_meeting_time ?h t a node] reads at index [a] (0 on the
    node's own index). Borrowed: valid only until the next {!observe};
    callers must not mutate it. Triggers the same lazy build a query
    would. *)

val updates_count : t -> int
(** Total number of cell updates so far — used by the control channel to
    price table synchronization. *)

val global_mean : t -> float option
(** Mean over all observed direct pair averages (a prior for unknown
    pairs). *)
