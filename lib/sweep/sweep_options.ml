type t = {
  seed : int;
  strategy : Simgen_core.Strategy.t;
  outgold : Simgen_core.Outgold.strategy;
  random_rounds : int;
  guided_iterations : int;
  max_sat_calls : int option;
  max_conflicts : int option;
  escalations : int;
  bdd_fallback_nodes : int;
  one_distance : bool;
  incremental : bool;
  session_gc : bool;
  certify : bool;
  solver_audit : bool;
  should_stop : unit -> bool;
  on_cex : (bool array -> unit) option;
}

let default =
  {
    seed = 1;
    strategy = Simgen_core.Strategy.AI_DC_MFFC;
    outgold = Simgen_core.Outgold.Alternating;
    random_rounds = 1;
    guided_iterations = 20;
    max_sat_calls = None;
    max_conflicts = None;
    escalations = 3;
    bdd_fallback_nodes = 10_000;
    one_distance = false;
    incremental = true;
    session_gc = true;
    certify = false;
    solver_audit = false;
    should_stop = (fun () -> false);
    on_cex = None;
  }
