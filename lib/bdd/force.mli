(** FORCE variable-ordering heuristic (Aloul, Markov, Sakallah).

    Variables are vertices of a hypergraph; each hyperedge groups
    variables that appear together (a gate's support, a transition
    function's support). Iterative center-of-gravity relaxation pulls
    connected variables next to each other, which is exactly what BDD
    orders want. Linear-time per iteration, no BDDs involved — this is
    how the engines pick initial orders. *)

val order :
  ?iterations:int ->
  nvars:int ->
  edges:int list list ->
  unit ->
  int array
(** [order ~nvars ~edges] returns [pos] with [pos.(v)] the level
    assigned to variable [v]; [pos] is a permutation of
    [0 .. nvars-1]. Variables in no edge keep their relative order at
    the bottom. Default 30 iterations, stopping early when total edge
    span stops improving. *)

val span : pos:int array -> edges:int list list -> int
(** Total span (max - min level) over all edges — the cost FORCE
    minimizes; exposed for tests and benchmarks. *)
