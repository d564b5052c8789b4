(** Bounded falsification by incremental SAT (the second engine family).

    A drop-in twin of {!Bmc} built on {!Rfn_sat}: iterative-deepening
    bounded model checking where every depth extends a single
    incremental CNF instance (Eén, Mishchenko & Amla's single-instance
    formulation) instead of re-running sequential ATPG from scratch.
    The per-depth target is one assumption literal, so learned clauses
    survive across depths.

    It is not a rung of the CEGAR loop, whose Steps 3 and 4 always run
    sequential ATPG. It is the [rfn bmc --engine sat] baseline and the
    differential oracle for {!Bmc.falsify}. *)

val falsify :
  ?limits:Rfn_atpg.Atpg.limits ->
  Rfn_circuit.Circuit.t ->
  bad:int ->
  max_depth:int ->
  Bmc.outcome * Rfn_sat.Solver.stats
(** Same contract as {!Bmc.falsify}: depths are tried in increasing
    order on one incremental instance, a [Found] trace is a shortest
    counterexample and is validated by concrete replay before being
    reported. Statistics are the solver's lifetime totals for this
    instance. [limits] maps onto the solver: backtracks become
    conflicts one-for-one, the wall-clock budget carries over. *)
