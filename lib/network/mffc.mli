(** Maximum Fanout-Free Cones (paper §2.1, used by the §5 decision
    heuristic).

    The MFFC of a node [n] is the largest subset of its fanin cone such that
    every path from a member node to a PO passes through [n]. Gates inside
    the MFFC feed only [n]'s logic, so value assignments there cannot
    conflict with propagations from other outputs. *)

val compute : Network.t -> Network.node_id -> Network.node_id list
(** Members of the MFFC rooted at the node (gates only, root included),
    in ascending id order. A PI argument yields the empty list. A node
    tapped as a primary output is never an interior member: the PO is an
    external observation of its value. Found by dereferencing fanout
    counts from the root, so the work is bounded by the MFFC, not by the
    root's fanin cone. *)

val depth : Network.t -> int array -> Network.node_id -> float
(** Equation (2): average over the MFFC's leaves of
    [level(root) - level(leaf)], given precomputed levels. A leaf is a
    member with no fanin inside the MFFC: the first member met on any
    PI-to-root path (for a singleton MFFC, the root itself). A PI (empty
    MFFC) has depth [0.]. *)

type cache

val cache : Network.t -> cache
(** Memoizes per-node MFFC depths against a fixed network/level snapshot. *)

val cached_depth : cache -> Network.node_id -> float
