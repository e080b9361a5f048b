(** The propagation engine: implication to fixpoint over a network.

    Wraps a network, a packed row cache ({!Rows}) and a ternary
    {!Assignment}. Assigning a value seeds a worklist; {!propagate} drains
    it, examining each touched gate against the matching rows of its
    function and applying simple or advanced implication (paper §4) until a
    fixpoint or a conflict. In [Backward_only] mode a gate is examined only
    when its own output value arrives — the reverse-simulation baseline of
    §1.1.

    Examination packs the gate's fanin values into two int masks, so row
    matching and Definition 4.1 are bitwise folds; propagation allocates
    nothing. *)

type t

type outcome = Fixpoint | Conflict_at of Simgen_network.Network.node_id

val create :
  ?config:Config.t -> Simgen_network.Network.t -> t

val network : t -> Simgen_network.Network.t
val assignment : t -> Assignment.t
val config : t -> Config.t

val rows_of : t -> Simgen_network.Network.node_id -> Rows.row array
(** Packed rows of a gate's function (cached, shared per function). *)

val matching : t -> Simgen_network.Network.node_id -> int array -> int
(** [matching t g buf] writes the indices into [rows_of t g] of the rows
    compatible with the current values of the gate's fanins and output,
    in ascending order, to the front of [buf], and returns their number.
    [buf] must be at least as long as [rows_of t g]. *)

val set_scope : t -> Simgen_network.Network.node_id list -> unit
(** Restrict propagation to the union of the nodes' fanin cones
    (typically the current class's targets, Algorithm 1's [listDfs]).
    Values already assigned outside a new scope are still read during row
    matching — only gate (re)examination is confined. *)

val clear_scope : t -> unit
(** Lift the {!set_scope} restriction. *)

val mark_cone : t -> Simgen_network.Network.node_id -> unit
(** Remember the fanin cone of one node (the current target), replacing
    the previously marked cone; query it with {!in_cone}. Independent of
    the propagation scope. *)

val in_cone : t -> Simgen_network.Network.node_id -> bool

val set : t -> Simgen_network.Network.node_id -> bool -> unit
(** Assign a node value and schedule the affected gates. The engine must be
    followed by {!propagate} before the next query. Assigning a node that
    already holds the opposite value records a pending conflict returned by
    the next {!propagate}. Re-assigning the same value is a no-op. *)

val propagate : t -> outcome
(** Run implications to fixpoint. On [Conflict_at g] the caller is expected
    to roll the assignment back to a checkpoint; the engine's worklist is
    cleared. *)

val checkpoint : t -> int
val rollback : t -> int -> unit

val num_implications : t -> int
(** Total values assigned by implication since creation. *)

val num_examinations : t -> int
(** Gate examinations performed (a work measure for runtime accounting). *)
