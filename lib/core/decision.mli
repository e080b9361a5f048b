(** Decision: choosing a truth-table row when implication stalls (paper §5).

    Given the candidate gate's matching rows, ranks them by the don't-care
    count (Eq. 1) and the MFFC metric (Eqs. 2–3), combines the two into the
    priority of Eq. 4 and draws a row with a stochastic-acceptance roulette
    wheel. The chosen row's concrete values are then assigned through the
    engine. Matching rows are taken in row-array order and MFFC ranks are
    cached per gate and row, so a decision allocates nothing once its gate
    has been seen. *)

type t

val create : ?rng:Simgen_base.Rng.t -> Engine.t -> t
(** Builds the MFFC depth cache lazily on first use (only the
    [Dc_mffc_weighted] policy pays for it). *)

val mffc_rank : t -> Simgen_network.Network.node_id -> Rows.row -> float
(** Equation (3) for a row of the given gate: sum over non-DC inputs of the
    fanin's MFFC depth, in input order. *)

val row_priority :
  t -> nvars:int -> max_rank:float -> rank:float -> Rows.row -> float
(** Equation (4) with the configured alpha/beta for a row over [nvars]
    inputs whose Eq. (3) rank is [rank]; the rank is normalised by
    [max_rank] so that the DC count dominates (alpha >> beta'). *)

val decide : t -> Simgen_network.Network.node_id -> (unit, Simgen_network.Network.node_id) result
(** Full decision step on a candidate gate: compute matching rows, choose
    one according to the engine's configured decision policy, assign its
    values through the engine ([Error g] when no row matches, i.e. the
    decision itself exposes a conflict). Increments the decision
    counter. *)

val num_decisions : t -> int
