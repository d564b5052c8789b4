(** RFN: the abstraction-refinement property verifier (Section 2).

    The four-step loop of the paper:

    + generate the abstract model (a subcircuit; {!Rfn_circuit.Abstraction}),
    + prove the property or find an abstract error trace
      (BDD fixpoint {!Rfn_mc.Reach} + BDD–ATPG hybrid {!Hybrid}),
    + search for a concrete error trace on the original design
      (guided sequential ATPG, {!Concretize}),
    + refine with crucial registers
      (3-valued simulation + greedy ATPG minimization, {!Refine}),

    repeated until the property is proved on an abstract model (then it
    holds for the design), a concrete counterexample is found, or a
    resource limit is exceeded. Symbolic image computation is never
    performed on the original design.

    Every engine invocation runs under the {!Supervisor}: a BDD node
    blow-up retries the fixpoint with a fresh variable order and then a
    grown node budget, a min-cut extraction failure falls back to pure
    pre-image, a concretization give-up escalates the ATPG backtrack
    budget for later iterations, and an empty refinement falls back to
    the highest-fanout pseudo-input and finally a BMC re-check. Steps 3
    and 4 always run sequential ATPG ({!Concretize}, {!Bmc}); the
    incremental-SAT twin {!Sat_bmc} is a stand-alone baseline and
    differential oracle, not a rung of the loop. Failures that survive
    the ladders surface as [Aborted] with a structured
    {!Rfn_failure.t}. *)

type config = {
  max_iterations : int;
  node_limit : int;  (** BDD node budget per iteration *)
  mc_max_steps : int;  (** fixpoint step bound *)
  max_seconds : float option;
      (** overall wall-clock budget ({!Rfn_obs.Telemetry.now}); the
          remaining budget handed to the engines is clamped at zero,
          and each supervised ATPG call gets at most its phase's share
          of what remains ({!Supervisor.clamp_limits}) — so a run
          overshoots the budget by at most one engine slice, bounded by
          [supervisor.grace_seconds] in the tests *)
  abstract_atpg : Rfn_atpg.Atpg.limits;
      (** budget for hybrid cube extension and refinement checks *)
  concrete_atpg : Rfn_atpg.Atpg.limits;
      (** budget for the guided search on the original design *)
  guidance_traces : int;
      (** how many abstract error traces to extract and try as guidance
          for the concrete search (default 1; values above 1 implement
          the paper's future-work multi-trace guidance) *)
  supervisor : Supervisor.policy;
      (** retry/escalation/fallback and deadline-sharing knobs *)
  inject : (Supervisor.site -> Supervisor.fault option) option;
      (** fault-injection hook for chaos testing; [None] (the default)
          defers to the [RFN_INJECT_FAULTS] environment variable *)
  session : Session.policy;
      (** persistent-session knob: incremental reuse on, or off for the
          from-scratch reference mode ({!Session.default_policy}) *)
  check_invariants : bool;
      (** validate cross-artifact invariants ({!Rfn_lint.Check}) at
          every CEGAR phase boundary — varmap↔view totality and the
          session cone cache after each prepare, trace shape after
          extraction and concretization, the grown varmap after each
          refinement; a violation aborts with a structured
          [Invariant] failure. Defaults to the [RFN_CHECK]
          environment flag ({!Rfn_lint.Check.env_enabled}) *)
  checkpoint : string option;
      (** when set, serialize the loop state to this file at every
          iteration boundary (atomic write, keyed by a netlist
          digest); removed again on a conclusive verdict, kept on
          abort so the run can be resumed *)
  resume : bool;
      (** load [checkpoint] before starting (if the file exists and
          matches this design and property — otherwise warn and start
          fresh): the abstraction is re-seeded with the checkpointed
          registers, the escalation factor is restored, and iteration
          numbering continues where the killed run stopped *)
  job_id : string;
      (** server job identifier, woven into the checkpoint key
          ({!Rfn_proc.Checkpoint.make}/[validate]) so two queued jobs
          on the same (design, property) cannot adopt each other's
          loop state; [""] (the default) for stand-alone runs *)
}

val default_config : config

type iteration = {
  abstract_regs : int;  (** registers in this iteration's model *)
  model_inputs : int;  (** free inputs of the model *)
  cut_size : int option;  (** min-cut inputs, when the hybrid ran *)
  no_cut_steps : int;  (** hybrid pre-image steps needing no ATPG *)
  min_cut_steps : int;  (** hybrid steps needing ATPG cube extension *)
  fixpoint_steps : int;
  trace_length : int option;  (** abstract trace length, if any *)
  candidates : int;  (** phase-1 candidates, when refining *)
  added : int;  (** registers actually added, when refining *)
}

type stats = {
  iterations : iteration list;  (** chronological *)
  provenance : Rfn_obs.Provenance.t list;
      (** chronological; one record per iteration with engine choices,
          refinement deltas and resource gauges — the same records the
          loop emits as ["rfn.iteration"] telemetry events *)
  coi_regs : int;
  coi_gates : int;
  final_abstract_regs : int;
  last_abstract_trace : Rfn_circuit.Trace.t option;
      (** the abstract error trace of the last iteration that produced
          one — what guided the final concretization (for ablations) *)
  seconds : float;
  resumed_iterations : int;
      (** iterations skipped because a checkpoint was resumed (0 for a
          fresh run); [provenance] still covers them — the
          checkpointed tail is prepended — but [iterations] only
          covers the iterations this process actually ran *)
}

type outcome =
  | Proved
  | Falsified of Rfn_circuit.Trace.t  (** validated concrete trace *)
  | Aborted of Rfn_failure.t
      (** which engine gave up, in which phase, on which resource, at
          which iteration, after how many recovery attempts — render
          with {!Rfn_failure.to_string} *)

val prepare :
  ?config:config -> Rfn_circuit.Circuit.t -> roots:int list -> Session.t
(** A persistent session for [circuit], sized by the config's
    [node_limit] and [session] policy. No BDD work happens yet. The
    session carries BDD state across the iterations of one CEGAR run;
    the serve layer makes one per job. *)

val verify_in_session :
  ?config:config ->
  Session.t ->
  Rfn_circuit.Property.t ->
  outcome * stats
(** Run the four-step loop for one property on an existing session.
    The session is first retargeted ({!Session.retarget}) to the
    property's roots under the config's [node_limit], which drops any
    manager an earlier property left. Verdicts never depend on what the
    session ran before. *)

val verify :
  ?config:config ->
  Rfn_circuit.Circuit.t ->
  Rfn_circuit.Property.t ->
  outcome * stats
(** [prepare] + {!verify_in_session} on a fresh session: the original
    run-once entry point. *)

val check_coi_model_checking :
  ?node_limit:int ->
  ?max_steps:int ->
  ?max_seconds:float ->
  Rfn_circuit.Circuit.t ->
  Rfn_circuit.Property.t ->
  [ `Proved | `Reached of int | `Aborted of Rfn_failure.resource ] * float
(** The baseline the paper compares against: plain symbolic model
    checking of the property on the COI-reduced design (no
    abstraction). Returns the outcome and the wall-clock seconds
    spent. *)
