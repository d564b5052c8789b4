(** Cross-artifact invariant checks.

    The CEGAR engines share mutable artifacts — a {!Rfn_mc.Varmap}
    grown in place, a session cone cache, incremental CNF unrollings,
    traces handed between engines — whose invariants are otherwise only
    enforced by scattered [Invalid_argument]s at crash time. Each
    checker here validates one artifact {e independently of the engine
    that produced it} and returns structured {!Lint.finding}s; the core
    loop runs them at phase boundaries when [RFN_CHECK=1] (or
    [Rfn.config.check_invariants]) is set and converts any violation
    into a structured [Invariant] abort via {!ensure}. *)

val env_enabled : unit -> bool
(** Whether [RFN_CHECK] is set to [1], [true], [yes] or [on]. *)

exception Violation of string * Lint.finding list
(** Raised by {!ensure}: the phase-boundary label and the findings. *)

val violation_message : string -> Lint.finding list -> string
(** One-line rendering of a violation (first finding's message, plus a
    count of the rest) for structured failure payloads. *)

val ensure : what:string -> Lint.finding list -> unit
(** No findings: bump [check.invariant_passes]. Findings: bump
    [check.invariant_failures] and raise {!Violation}. *)

val varmap : Rfn_mc.Varmap.t -> Lint.finding list
(** Varmap ↔ Sview totality and sanity: every register of the view
    carries current- and next-state variables, every free input an
    input variable; every variable is within the manager's range; no
    two roles share a variable; the [role] table round-trips each
    allocation. Catches stale indices after {!Rfn_mc.Varmap.grow}. *)

val cone_cache : Rfn_mc.Varmap.t -> signals:int list -> Lint.finding list
(** Session cone-cache consistency: [signals] (the memo's keys) must be
    exactly the view's inside set — no stale entry for a signal that
    left the view, no inside signal missing its compiled cone. Run
    after [Session.prepare] (which makes the memo total). *)

val trace :
  ?input_ok:(int -> bool) ->
  Rfn_circuit.Sview.t ->
  depth:int ->
  Rfn_circuit.Trace.t ->
  Lint.finding list
(** Trace well-formedness against a view: [depth] states, state cubes
    only over the view's registers, input cubes only over signals
    satisfying [input_ok] (default: the view's free inputs — pass a
    wider predicate for hybrid traces whose input cubes pin min-cut
    signals). For a concrete trace use [Sview.whole]. *)

val cnf : Rfn_sat.Cnf.t -> Lint.finding list
(** CNF sanity over every clause attached to the unrolling's solver
    (original and learned): no duplicate or complementary literals
    within a clause, every literal over an allocated variable. *)
