(** Forward reachability with on-the-fly target detection (Step 2).

    Breadth-first symbolic fixpoint from the initial states. The
    onion rings S₀, S₁, …, S_k (states first reached after exactly i
    steps) are retained: the hybrid engine walks them backwards to
    extract an abstract error trace, and the paper saves them for the
    same purpose. The run stops as soon as a ring intersects the
    target states, when the fixpoint closes, or when a resource limit
    (steps, wall-clock seconds, or the manager's node budget) is
    hit. *)

type outcome =
  | Proved  (** fixpoint closed without touching the target states *)
  | Reached of int  (** ring [k] intersects the target states *)
  | Closed of int
      (** fixpoint closed with [stop_at_bad:false]; ring [k] was the
          first to touch the target states *)
  | Aborted of Rfn_failure.resource
      (** resource limit: [Steps], [Time], or [Nodes]. Structured so
          callers can tell a retryable abort (node budget — retry with
          a fresh order or a bigger budget) from a terminal one (wall-clock
          budget) without string matching. *)

type result = {
  outcome : outcome;
  rings : Rfn_bdd.Bdd.t array;  (** S₀ … S_last, disjoint *)
  reached : Rfn_bdd.Bdd.t;  (** union of the rings *)
  steps : int;
  seconds : float;
}

val run :
  ?max_steps:int ->
  ?max_seconds:float ->
  ?stop_at_bad:bool ->
  Image.t ->
  vm:Varmap.t ->
  init:Rfn_bdd.Bdd.t ->
  bad_states:Rfn_bdd.Bdd.t ->
  result
(** [bad_states] must be a predicate over current-state variables
    (quantify inputs out first — see {!bad_predicate}). With
    [stop_at_bad:false] (default [true]) the fixpoint keeps running
    after touching the target states — coverage analysis wants the
    complete reachable set for its projection argument and the first
    touching ring for trace extraction. *)

val bad_predicate : Varmap.t -> fn:(int -> Rfn_bdd.Bdd.t) -> bad:int -> Rfn_bdd.Bdd.t
(** The target-state predicate of an unreachability property: states
    from which some input valuation drives [bad] to 1 (inputs
    existentially quantified from the bad signal's cone). *)
