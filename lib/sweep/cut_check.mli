(** Local decision of one candidate pair over a small shared cut: the
    first rung of {!Sweeper.verify_pair}, run before any SAT work.

    A cut of at most {!max_support} nodes is grown from the two
    (substitution-resolved) nodes by expanding frontier gates, spending
    at most 48 expansions. Both cone functions are then
    computed as truth tables over the cut variables.

    {b Trust boundary.} The check is stateless: every answer is derived
    from the live network and substitution, so it is sound by
    construction.
    - [Equal] only when the two tables over the {e same} cut agree
      pointwise: agreement over free cut variables implies agreement
      over every reachable input assignment. Never returned under
      [certify], where every merge must cite a DRUP proof.
    - [Counterexample] only from a differing minterm of an exact cut,
      one whose frontier is all PIs (the pair's true support). PIs
      outside the cut are drawn from [rng].
    - [Unknown] in every other case, including an inexact cut whose
      tables differ: the difference may be unreachable, so SAT decides. *)

type verdict = Sat_session.verdict =
  | Equal
  | Counterexample of bool array
  | Unknown

val max_support : int
(** Widest cut grown, i.e. the arity of the compared tables (8). *)

val check :
  certify:bool ->
  rng:Simgen_base.Rng.t ->
  subst:int array ->
  Simgen_network.Network.t ->
  Simgen_network.Network.node_id ->
  Simgen_network.Network.node_id ->
  verdict
(** Decide the pair [(a, b)], resolved through [subst] like every
    miter, or answer [Unknown]. *)
