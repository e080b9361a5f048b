(** Execute one job: the budgeted CEC/sweep flow with telemetry and the
    shared pattern cache. Never raises — any exception becomes a
    [Job.Failed] result. Used by {!Pool}; exposed for tests and for
    embedding a single budgeted run without a pool. *)

val run :
  ?cache:Pattern_cache.t ->
  ?cancel:bool Simgen_base.Shared.Atomic.t ->
  events:Events.sink ->
  worker:int ->
  Job.spec ->
  Job.result
