(** Persistent verification session: one BDD manager for a whole CEGAR
    run.

    The paper's refinement loop is monotone — every iteration's
    abstract model contains the previous one — so the expensive
    symbolic state (cone BDDs, the clustered transition relation, the
    variable order) is mostly {e carried} rather than rebuilt. The
    session owns that state:

    - the abstraction, refined in place through
      {!Rfn_circuit.Abstraction.refine_delta};
    - one {!Rfn_mc.Varmap} grown in place ({!Rfn_mc.Varmap.grow}): a
      promoted pseudo-input's variable is re-rolled as its
      current-state variable, so every cone BDD compiled over the old
      view stays valid verbatim;
    - a persistent cone memo, extended incrementally with
      {!Rfn_mc.Symbolic.compile_view} — only the refinement delta's
      cones are compiled;
    - a cluster cache ({!Rfn_mc.Image.build}): carried registers form a
      verbatim-reusable prefix of the relation, so only the dirty
      suffix is re-clustered.

    Carrying the order is the paper's Step 2 order reuse: every
    carried variable keeps its level and new ones are appended at the
    bottom. A grown manager is used as it is; when an order does blow
    up, the supervisor's [fixpoint+fresh-order] and
    [fixpoint+node-budget] rungs {!reset} the session and rebuild.

    Everything observable is counted under [session.*] telemetry
    names: [cones_reused]/[cones_recompiled],
    [clusters_reused]/[clusters_rebuilt], [grow_in_place], [resets],
    and the [nodes_carried] gauge. *)

type policy = {
  reuse : bool;
      (** [false] switches to the from-scratch reference mode: every
          refinement replaces the manager with an empty replica under
          the {e identical} variable assignment
          ({!Rfn_mc.Varmap.replica}), so behaviour is bit-identical to
          the incremental mode while nothing is reused — the
          differential tests' baseline. *)
}

val default_policy : policy
(** [{reuse = true}] *)

type prepared = {
  vm : Rfn_mc.Varmap.t;
  fn : int -> Rfn_bdd.Bdd.t;
      (** cone lookup over the session memo; raises [Invalid_argument]
          outside the view *)
  img : Rfn_mc.Image.t;
}

type t

val create :
  ?node_limit:int ->
  ?policy:policy ->
  Rfn_circuit.Circuit.t ->
  roots:int list ->
  t
(** A session starting from {!Rfn_circuit.Abstraction.initial} of the
    roots. No BDD work happens until {!prepare}. *)

val abstraction : t -> Rfn_circuit.Abstraction.t

val circuit : t -> Rfn_circuit.Circuit.t
(** The concrete circuit the session's abstractions are views of. *)

val policy : t -> policy

val varmap : t -> Rfn_mc.Varmap.t option
(** The session's current varmap, if one has been built — the
    [RFN_CHECK] invariant checker's view into the shared state. *)

val cone_signals : t -> int list
(** Signals holding a compiled cone in the session memo (the
    [Rfn_lint.Check.cone_cache] input). Total over the view's inside
    set right after {!prepare}. *)

val prepare : t -> prepared
(** Make the symbolic state match the current abstraction: compile the
    missing cones, re-cluster the dirty suffix of the relation (after
    an in-place grow, first collect the previous iteration's garbage).
    Idempotent between refinements (the
    second call returns the same triple). May raise
    [Rfn_bdd.Bdd.Limit_exceeded] — call it inside the supervised rung
    so a blow-up maps to a structured failure; the rung's reset then
    rebuilds cleanly. *)

val refine :
  t -> add:int list -> Rfn_circuit.Abstraction.delta
(** Refine the abstraction and grow (or, with [reuse = false],
    replicate) the varmap accordingly. Allocates no BDD nodes — safe
    to call outside the supervised rungs. *)

val reset : ?node_limit:int -> t -> unit
(** Drop the manager, its variable order and every per-manager
    structure; the next {!prepare} rebuilds from scratch under a fresh
    FORCE order — the supervisor's fresh-order retry rung.
    [node_limit] replaces the session's node budget — the node-budget
    retry rung. *)

val retarget : ?node_limit:int -> t -> roots:int list -> unit
(** Point the session at a different property of the same circuit: the
    abstraction restarts from {!Rfn_circuit.Abstraction.initial} of the
    new roots, [node_limit] (when given) replaces the session's node
    budget, and the manager is dropped with every per-manager
    structure, so the retargeted run is bit-identical to a cold one.
    BDD state is carried only {e within} one CEGAR run; nothing
    survives. Counted as [session.retargets]. *)
