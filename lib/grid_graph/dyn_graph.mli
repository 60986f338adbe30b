(** A growable simple undirected graph with stable node handles.

    The Online-LOCAL executors grow the revealed region monotonically:
    nodes enter when first seen and never leave, and edges are only ever
    added.  Handles are allocated densely in discovery order and stay
    valid forever, which is what lets an algorithm keep per-node state
    across reveals. *)

type t

val create : unit -> t

val add_node : t -> Graph.node
(** Allocate a fresh node; handles are [0, 1, 2, ...] in order. *)

val add_edge : t -> Graph.node -> Graph.node -> unit
(** Add an undirected edge; duplicates are ignored.
    @raise Invalid_argument on self-loops or unknown handles. *)

val n : t -> int
(** Number of allocated nodes. *)

val mem_edge : t -> Graph.node -> Graph.node -> bool

val neighbors : t -> Graph.node -> Graph.node list
(** Current neighbors, in the order a per-node [(int, unit) Hashtbl.t]
    folds them: with [b] buckets (16, doubled whenever the degree
    exceeds [2b]), by bucket index [Hashtbl.hash w land (b - 1)]
    descending, then in insertion order within a bucket.  Callers'
    outputs depend on this order (DESIGN.md, invariant 2). *)

val snapshot : t -> Graph.t
(** An immutable copy of the current graph; handles coincide. *)
