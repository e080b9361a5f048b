(** Lint front end: dispatch by artifact kind, parse errors as
    diagnostics.

    This is what the [simgen_cli lint] subcommand and the batch runner's
    pre-flight validation call. Files are routed by extension; a parse
    failure becomes a single [P001] error diagnostic carrying the
    file/line location instead of an exception, so linting a directory of
    mixed-quality inputs never aborts halfway. *)

val network : ?name:string -> Simgen_network.Network.t -> Diagnostic.t list
(** {!Net_lint.run}; [name] is prepended to no locations but reserved for
    callers that label output themselves. *)

val aig : Simgen_aig.Aig.t -> Diagnostic.t list

val cnf : ?source:string -> nvars:int -> Simgen_sat.Literal.t list list -> Diagnostic.t list

val semantic :
  ?seed:int ->
  ?budget:int ->
  ?bdd_nodes:int ->
  ?rounds:int ->
  Simgen_network.Network.t ->
  Diagnostic.t list
(** {!Sem_lint.run}: the SAT/BDD-proved semantic tier ([S001]..[S008]).
    Orders of magnitude costlier than the structural lints — opt-in via
    [simgen_cli lint --semantic], never part of runner pre-flight. *)

val tseitin_encoding : Simgen_network.Network.t -> Diagnostic.t list
(** Encode the network into a fresh recording {!Simgen_sat.Tseitin.env}
    and lint the emitted clause stream — an end-to-end audit of the
    encoder itself. *)

val load_error : string -> exn -> Diagnostic.t option
(** The diagnostic for an exception raised while reading [path]: [P001]
    with the parser's file/line for a parse error, [P002] for an
    unreadable file, [None] for any other exception. {!file} reports
    load failures this way, and so does every CLI subcommand that loads
    a circuit. *)

val file : string -> Diagnostic.t list
(** Route by extension: [.blif] and [.bench] parse to a network and run
    the network lints; [.aag] parses to an AIG and runs the AIG lints;
    [.cnf] / [.dimacs] parse to clauses and run the CNF lints. Parse
    errors yield a [P001] error diagnostic; an unknown extension or an
    unreadable file yields [P002]. *)
