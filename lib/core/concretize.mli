(** Error-trace search on the original design (Section 2.3).

    RFN never runs symbolic image computation on the original design;
    instead sequential ATPG searches for a concrete error trace, with
    the abstract error trace as cycle-by-cycle guidance: the abstract
    trace's length bounds the search depth, its state and pseudo-input
    literals become per-cycle objectives, and its primary-input
    literals become root assignments. *)

type outcome =
  | Found of Rfn_circuit.Trace.t
      (** concrete counterexample (validated by 3-valued replay) *)
  | Not_found_here  (** ATPG proved the guided search space empty *)
  | Gave_up of Rfn_failure.resource
      (** resource limit ([Backtracks] is worth escalating, [Time] is
          terminal) or an invariant slip (an unvalidated trace) *)

val guided :
  ?limits:Rfn_atpg.Atpg.limits ->
  Rfn_circuit.Circuit.t ->
  bad:int ->
  abstract_trace:Rfn_circuit.Trace.t ->
  outcome * Rfn_atpg.Atpg.stats
(** Search for a concrete error trace of [Trace.length abstract_trace]
    cycles that meets the abstract trace's per-cycle literals and
    reaches [bad] in its last cycle. *)

val guided_any :
  ?limits:Rfn_atpg.Atpg.limits ->
  Rfn_circuit.Circuit.t ->
  bad:int ->
  abstract_traces:Rfn_circuit.Trace.t list ->
  outcome * Rfn_atpg.Atpg.stats
(** Guided search over a *set* of abstract error traces (the paper's
    future-work extension): each trace is tried in turn under the given
    per-trace limits. [Found] as soon as one concretizes;
    [Not_found_here] only if every trace's search space was proved
    empty; statistics are summed. *)

val guided_to_trace :
  ?limits:Rfn_atpg.Atpg.limits ->
  Rfn_circuit.Circuit.t ->
  abstract_trace:Rfn_circuit.Trace.t ->
  outcome * Rfn_atpg.Atpg.stats
(** Guided search whose target is the abstract trace itself (its final
    state cube in particular) rather than a bad signal — the form the
    coverage analysis uses to concretize a path to a coverage state. *)

val unguided :
  ?limits:Rfn_atpg.Atpg.limits ->
  Rfn_circuit.Circuit.t ->
  bad:int ->
  depth:int ->
  outcome * Rfn_atpg.Atpg.stats
(** Plain bounded search (only the bad objective at the last frame) —
    the baseline for the guidance ablation. *)
