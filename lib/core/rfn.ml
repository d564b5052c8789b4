open Rfn_circuit
module Bdd = Rfn_bdd.Bdd
module Varmap = Rfn_mc.Varmap
module Symbolic = Rfn_mc.Symbolic
module Image = Rfn_mc.Image
module Reach = Rfn_mc.Reach
module Atpg = Rfn_atpg.Atpg
module Telemetry = Rfn_obs.Telemetry
module F = Rfn_failure

let src = Logs.Src.create "rfn" ~doc:"RFN abstraction refinement"

module Log = (val Logs.src_log src : Logs.LOG)

(* Handles to counters owned by the engines: the loop snapshots them at
   the top of each iteration and attributes the deltas to that
   iteration's provenance record. *)
let c_sup_retries = Telemetry.counter "supervisor.retries"
let c_sup_fallbacks = Telemetry.counter "supervisor.fallbacks"
let c_sup_injected = Telemetry.counter "supervisor.injected_faults"
let c_atpg_backtracks = Telemetry.counter "atpg.backtracks"
let g_bdd_nodes = Telemetry.gauge "bdd.live_nodes"

type config = {
  max_iterations : int;
  node_limit : int;
  mc_max_steps : int;
  max_seconds : float option;
  abstract_atpg : Atpg.limits;
  concrete_atpg : Atpg.limits;
  guidance_traces : int;
  supervisor : Supervisor.policy;
  inject : (Supervisor.site -> Supervisor.fault option) option;
  session : Session.policy;
  check_invariants : bool;
      (* validate cross-artifact invariants (varmap totality, trace
         shape, cone-cache consistency) at every phase boundary;
         defaults to the RFN_CHECK environment flag *)
  checkpoint : string option;
  resume : bool;
  job_id : string;
      (* server job identifier, woven into the checkpoint key so two
         queued jobs on the same (design, property) cannot adopt each
         other's loop state; "" for stand-alone runs *)
}

let default_config =
  {
    max_iterations = 64;
    node_limit = 2_000_000;
    mc_max_steps = 2_000;
    max_seconds = None;
    abstract_atpg = { Atpg.max_backtracks = 50_000; max_seconds = Some 20.0 };
    concrete_atpg = { Atpg.max_backtracks = 200_000; max_seconds = Some 60.0 };
    guidance_traces = 1;
    supervisor = Supervisor.default_policy;
    inject = None;
    session = Session.default_policy;
    check_invariants = Rfn_lint.Check.env_enabled ();
    checkpoint = None;
    resume = false;
    job_id = "";
  }

type iteration = {
  abstract_regs : int;
  model_inputs : int;
  cut_size : int option;
  no_cut_steps : int;
  min_cut_steps : int;
  fixpoint_steps : int;
  trace_length : int option;
  candidates : int;
  added : int;
}

type stats = {
  iterations : iteration list;
  provenance : Rfn_obs.Provenance.t list;
  coi_regs : int;
  coi_gates : int;
  final_abstract_regs : int;
  last_abstract_trace : Trace.t option;
  seconds : float;
  resumed_iterations : int;
}

type outcome = Proved | Falsified of Trace.t | Aborted of F.t

let prepare ?(config = default_config) circuit ~roots =
  Session.create ~node_limit:config.node_limit ~policy:config.session circuit
    ~roots

let verify_in_session ?(config = default_config) session prop =
  let started = Telemetry.now () in
  let circuit = Session.circuit session in
  (* (Re)point the session at this property under this run's node
     budget; any manager a previous property left behind is dropped. *)
  Session.retarget session ~node_limit:config.node_limit
    ~roots:(Property.roots prop);
  let sup =
    Supervisor.start ?inject:config.inject config.supervisor
      ~max_seconds:config.max_seconds
  in
  let bad = prop.Property.bad in
  let coi = Coi.compute circuit ~roots:(Property.roots prop) in
  let iterations = ref [] in
  let provenance = ref [] in
  let last_trace = ref None in
  (* ---- crash-safe checkpointing --------------------------------------
     The loop state (abstraction register set, iteration counter,
     escalation factor, provenance tail) is persisted atomically at
     each iteration boundary, keyed by a digest of the netlist: a
     killed run resumes from its last completed refinement, and a
     checkpoint written for a different design or property is ignored
     with a warning rather than trusted. *)
  let netlist_hash =
    match config.checkpoint with
    | None -> ""
    | Some _ -> Rfn_proc.Checkpoint.hash_circuit circuit
  in
  let resumed_iterations = ref 0 in
  let start_iter = ref 1 in
  (if config.resume then
     match config.checkpoint with
     | None -> ()
     | Some file when not (Sys.file_exists file) -> ()
     | Some file -> (
       let fresh msg =
         Log.warn (fun m ->
             m "ignoring checkpoint %s (%s); starting fresh" file msg)
       in
       match Rfn_proc.Checkpoint.load file with
       | Error msg -> fresh msg
       | Ok ck -> (
         match
           Rfn_proc.Checkpoint.validate ck ~job_id:config.job_id ~netlist_hash
             ~property:prop.Property.name
         with
         | Error msg -> fresh msg
         | Ok () -> (
           match
             List.map (Circuit.find circuit) ck.Rfn_proc.Checkpoint.regs
           with
           | exception Not_found ->
             fresh "a checkpointed register is not in this design"
           | ids ->
             let current =
               (Session.abstraction session).Abstraction.regs
             in
             let add =
               List.filter (fun s -> not (Bitset.mem current s)) ids
             in
             if add <> [] then ignore (Session.refine session ~add);
             Supervisor.set_escalation sup ck.Rfn_proc.Checkpoint.escalation;
             provenance := List.rev ck.Rfn_proc.Checkpoint.provenance;
             start_iter := max 1 ck.Rfn_proc.Checkpoint.iteration;
             resumed_iterations := max 0 (!start_iter - 1);
             Telemetry.event "rfn.resume"
               [
                 ("file", Rfn_obs.Json.Str file);
                 ("iteration", Rfn_obs.Json.Int !start_iter);
                 ( "regs",
                   Rfn_obs.Json.Int
                     (Abstraction.num_regs (Session.abstraction session)) );
               ];
             Log.info (fun m ->
                 m "resumed from %s: continuing at iteration %d with %d \
                    registers"
                   file !start_iter
                   (Abstraction.num_regs (Session.abstraction session)))))));
  let save_checkpoint iter =
    match config.checkpoint with
    | None -> ()
    | Some file -> (
      let abstraction = Session.abstraction session in
      let regs =
        List.map (Circuit.name circuit)
          (Bitset.to_list abstraction.Abstraction.regs)
      in
      let ck =
        Rfn_proc.Checkpoint.make ~job_id:config.job_id ~netlist_hash
          ~property:prop.Property.name ~iteration:iter
          ~seconds_used:(Telemetry.now () -. started)
          ~escalation:(Supervisor.escalation sup)
          ~regs
          ~provenance:(List.rev !provenance)
          ()
      in
      try Rfn_proc.Checkpoint.save file ck
      with Sys_error msg ->
        Log.warn (fun m -> m "checkpoint save failed: %s" msg))
  in
  let finish abstraction outcome =
    (* a conclusive verdict retires the checkpoint; an abort keeps it
       so the run can be resumed *)
    (match (outcome, config.checkpoint) with
    | (Proved | Falsified _), Some file when Sys.file_exists file -> (
      try Sys.remove file with Sys_error _ -> ())
    | _ -> ());
    ( outcome,
      {
        iterations = List.rev !iterations;
        provenance = List.rev !provenance;
        coi_regs = Coi.num_regs coi;
        coi_gates = Coi.num_gates coi;
        final_abstract_regs = Abstraction.num_regs abstraction;
        last_abstract_trace = !last_trace;
        seconds = Telemetry.now () -. started;
        resumed_iterations = !resumed_iterations;
      } )
  in
  let time_left () = Supervisor.time_left sup in
  let loop_failure iter resource =
    F.make ~iteration:iter ~engine:F.Cegar ~phase:F.Loop resource
  in
  (* Cross-artifact invariant checks at phase boundaries (RFN_CHECK=1 /
     [config.check_invariants]): a violation unwinds the loop into a
     structured [Invariant] abort instead of corrupting later phases. *)
  let exception Check_violation of F.t in
  let check ~iter ~engine ~phase ~what thunk =
    if config.check_invariants then
      try Rfn_lint.Check.ensure ~what (thunk ())
      with Rfn_lint.Check.Violation (w, fs) ->
        raise
          (Check_violation
             (F.make ~iteration:iter ~engine ~phase
                (F.Invariant (Rfn_lint.Check.violation_message w fs))))
  in
  let rec iterate iter =
    let abstraction = Session.abstraction session in
    save_checkpoint iter;
    if iter > config.max_iterations then
      finish abstraction (Aborted (loop_failure iter F.Iterations))
    else if Supervisor.out_of_time sup then
      finish abstraction (Aborted (loop_failure iter F.Time))
    else begin
      let view = abstraction.Abstraction.view in
      Log.info (fun m ->
          m "iteration %d: abstract model %a" iter Sview.pp_stats view);
      (* Counter snapshots: everything the engines bump during this
         iteration is attributed to it by delta. *)
      let iter_started = Telemetry.now () in
      let retries0 = Telemetry.counter_value c_sup_retries in
      let fallbacks0 = Telemetry.counter_value c_sup_fallbacks in
      let injected0 = Telemetry.counter_value c_sup_injected in
      let backtracks0 = Telemetry.counter_value c_atpg_backtracks in
      let record ?cut_size ?(no_cut = 0) ?(min_cut = 0) ?trace_length
          ?(candidates = 0) ?(added = 0) ?(cubes = 0) ?(guidance = 0)
          ?(concretize = "none") ?(promoted = []) ?regs_after
          ~outcome steps =
        iterations :=
          {
            abstract_regs = Abstraction.num_regs abstraction;
            model_inputs = Sview.num_free_inputs view;
            cut_size;
            no_cut_steps = no_cut;
            min_cut_steps = min_cut;
            fixpoint_steps = steps;
            trace_length;
            candidates;
            added;
          }
          :: !iterations;
        let regs_before = Abstraction.num_regs abstraction in
        let p =
          {
            Rfn_obs.Provenance.iter;
            regs_before;
            regs_after =
              (match regs_after with Some n -> n | None -> regs_before);
            model_inputs = Sview.num_free_inputs view;
            fixpoint_steps = steps;
            trace_depth = trace_length;
            cut_size;
            cubes;
            guidance;
            concretize;
            promoted;
            candidates;
            retries = Telemetry.counter_value c_sup_retries - retries0;
            fallbacks = Telemetry.counter_value c_sup_fallbacks - fallbacks0;
            injected = Telemetry.counter_value c_sup_injected - injected0;
            bdd_nodes = Telemetry.gauge_value g_bdd_nodes;
            bdd_peak = Telemetry.gauge_peak g_bdd_nodes;
            backtracks =
              Telemetry.counter_value c_atpg_backtracks - backtracks0;
            seconds = Telemetry.now () -. iter_started;
            outcome;
          }
        in
        provenance := p :: !provenance;
        Telemetry.event "rfn.iteration" (Rfn_obs.Provenance.to_fields p)
      in
      let attrs =
        [
          ("iter", Rfn_obs.Json.Int iter);
          ( "abstract_regs",
            Rfn_obs.Json.Int (Abstraction.num_regs abstraction) );
        ]
      in
      (* Step 2: prove or find an abstract error trace. Ladder: the
         session's carried state as-is, then (on a BDD node blow-up) a
         session reset — a rebuild with a fresh FORCE variable order —
         then one more with a grown node budget. [Session.prepare] runs
         inside the rung, so its blow-ups map to [Error Nodes] like the
         fixpoint's own. *)
      let mc_attempt ~prep () =
        match
          let { Session.vm; fn; img } = prep () in
          let init = Symbolic.initial_states vm in
          let bad_states = Reach.bad_predicate vm ~fn ~bad in
          let res =
            Reach.run ~max_steps:config.mc_max_steps
              ?max_seconds:(time_left ()) img ~vm ~init ~bad_states
          in
          (vm, fn, res)
        with
        | exception Bdd.Limit_exceeded -> Error F.Nodes
        | (_, _, res) as v -> (
          match res.Reach.outcome with
          | Reach.Aborted r when F.retryable_resource r -> Error r
          | _ -> Ok v)
      in
      let mc =
        Telemetry.with_span "rfn.abstract_mc" ~attrs (fun () ->
            Supervisor.run sup ~site:Supervisor.Abstract_mc ~engine:F.Bdd_mc
              ~phase:F.Abstract_mc ~iteration:iter
              [
                ( Supervisor.Primary,
                  "fixpoint",
                  mc_attempt ~prep:(fun () -> Session.prepare session) );
                ( Supervisor.Retry,
                  "fixpoint+fresh-order",
                  mc_attempt ~prep:(fun () ->
                      Session.reset session ~node_limit:config.node_limit;
                      Session.prepare session) );
                ( Supervisor.Retry,
                  "fixpoint+node-budget",
                  mc_attempt ~prep:(fun () ->
                      Session.reset session
                        ~node_limit:
                          (config.node_limit
                          * (Supervisor.policy sup).Supervisor.node_limit_growth);
                      Session.prepare session) );
              ])
      in
      Rfn_obs.Sampler.tick "rfn.abstract_mc";
      match mc with
      | Error failure ->
        record ~outcome:("aborted:" ^ F.resource_to_string failure.F.resource)
          0;
        finish abstraction (Aborted failure)
      | Ok (vm, fn, res) -> (
        check ~iter ~engine:F.Bdd_mc ~phase:F.Abstract_mc
          ~what:"abstract-mc artifacts" (fun () ->
            Rfn_lint.Check.varmap vm
            @ Rfn_lint.Check.cone_cache vm
                ~signals:(Session.cone_signals session));
        match res.Reach.outcome with
        | Reach.Proved ->
          record ~outcome:"proved" res.Reach.steps;
          Log.info (fun m -> m "property proved on the abstract model");
          finish abstraction Proved
        | Reach.Closed _ ->
          (* not produced when stop_at_bad is true (the default); an
             engine invariant slip degrades into a reported abort
             rather than a crash *)
          record ~outcome:"aborted:invariant" res.Reach.steps;
          finish abstraction
            (Aborted
               (F.make ~iteration:iter ~engine:F.Bdd_mc ~phase:F.Abstract_mc
                  (F.Invariant
                     "reachability closed with a bad intersection despite \
                      stop_at_bad")))
        | Reach.Aborted r ->
          (* terminal resource (time or step bound) — the ladder does
             not retry those *)
          record ~outcome:("aborted:" ^ F.resource_to_string r)
            res.Reach.steps;
          finish abstraction
            (Aborted
               (F.make ~iteration:iter ~engine:F.Bdd_mc ~phase:F.Abstract_mc r))
        | Reach.Reached k -> (
          (* Step 2b: abstract error trace. Ladder: the paper's min-cut
             pre-image path, then pure pre-image on the abstract model
             (no cut, no ATPG cube extension). *)
          let hybrid_attempt ~use_mincut () =
            match
              Hybrid.extract_multi
                ~atpg_limits:
                  (Supervisor.clamp_limits sup Supervisor.Hybrid_extract
                     config.abstract_atpg)
                ~use_mincut ~fn
                ~count:(max 1 config.guidance_traces)
                vm ~rings:res.Reach.rings ~target:(fn bad) ~k
            with
            | exception Hybrid.Extraction_failed r -> Error r
            | exception Bdd.Limit_exceeded -> Error F.Nodes
            | [] ->
              (* extract_multi promises at least one trace *)
              Error (F.Invariant "hybrid engine returned no abstract traces")
            | hybrids -> Ok hybrids
          in
          let extraction =
            Telemetry.with_span "rfn.hybrid" ~attrs (fun () ->
                Supervisor.run sup ~site:Supervisor.Hybrid_extract
                  ~engine:F.Hybrid ~phase:F.Trace_extraction ~iteration:iter
                  [
                    ( Supervisor.Primary,
                      "min-cut",
                      hybrid_attempt ~use_mincut:true );
                    ( Supervisor.Fallback,
                      "pure-preimage",
                      hybrid_attempt ~use_mincut:false );
                  ])
          in
          Rfn_obs.Sampler.tick "rfn.hybrid";
          match extraction with
          | Error failure ->
            record
              ~outcome:("aborted:" ^ F.resource_to_string failure.F.resource)
              res.Reach.steps;
            finish abstraction (Aborted failure)
          | Ok (hybrid :: _ as hybrids) -> (
            check ~iter ~engine:F.Hybrid ~phase:F.Trace_extraction
              ~what:"abstract error traces" (fun () ->
                (* input cubes may also pin min-cut signals, which carry
                   an input variable in the varmap *)
                let input_ok s =
                  Sview.is_free view s || Varmap.has_inp_var vm s
                in
                List.concat_map
                  (fun h ->
                    Rfn_lint.Check.trace ~input_ok view ~depth:(k + 1)
                      h.Hybrid.trace)
                  hybrids);
            let abstract_trace = hybrid.Hybrid.trace in
            last_trace := Some abstract_trace;
            Log.info (fun m ->
                m "%d abstract error trace(s) of length %d (cut %d of %d inputs)"
                  (List.length hybrids)
                  (Trace.length abstract_trace)
                  hybrid.Hybrid.cut_size hybrid.Hybrid.model_inputs);
            let record_hybrid ?(candidates = 0) ?(added = 0) ?(promoted = [])
                ?regs_after ~concretize ~outcome () =
              record ~cut_size:hybrid.Hybrid.cut_size
                ~no_cut:hybrid.Hybrid.no_cut_steps
                ~min_cut:hybrid.Hybrid.min_cut_steps
                ~trace_length:(Trace.length abstract_trace)
                ~cubes:
                  (2
                  * List.fold_left
                      (fun acc h -> acc + Trace.length h.Hybrid.trace)
                      0 hybrids)
                ~guidance:(List.length hybrids) ~concretize ~candidates ~added
                ~promoted ?regs_after ~outcome res.Reach.steps
            in
            (* Step 3: guided sequential ATPG on the original design. A
               failure here is never fatal — an injected or resource
               failure degrades to a give-up, which escalates the
               backtrack budget for the next iteration and refines. *)
            let guidance = List.map (fun h -> h.Hybrid.trace) hybrids in
            let guided_atpg () =
              match
                Concretize.guided_any
                  ~limits:(Supervisor.concrete_limits sup config.concrete_atpg)
                  circuit ~bad ~abstract_traces:guidance
              with
              | Concretize.Gave_up r, _ -> Error r
              | outcome, _ -> Ok outcome
            in
            let concrete =
              Telemetry.with_span "rfn.concretize" ~attrs (fun () ->
                  match
                    Supervisor.run sup ~site:Supervisor.Concretize
                      ~engine:F.Seq_atpg ~phase:F.Concretization
                      ~iteration:iter
                      [ (Supervisor.Primary, "guided-atpg", guided_atpg) ]
                  with
                  | Ok outcome -> outcome
                  | Error failure ->
                    Concretize.Gave_up failure.F.resource)
            in
            Rfn_obs.Sampler.tick "rfn.concretize";
            let concretize_desc =
              match concrete with
              | Concretize.Found _ -> "found"
              | Concretize.Not_found_here -> "not-found"
              | Concretize.Gave_up r -> "gave-up:" ^ F.resource_to_string r
            in
            let check_concrete_trace t =
              check ~iter ~engine:F.Seq_atpg ~phase:F.Concretization
                ~what:"concrete counterexample" (fun () ->
                  Rfn_lint.Check.trace
                    (Sview.whole circuit ~roots:[])
                    ~depth:(Trace.length t) t)
            in
            match concrete with
            | Concretize.Found t ->
              check_concrete_trace t;
              record_hybrid ~concretize:concretize_desc ~outcome:"falsified"
                ();
              Log.info (fun m -> m "concrete counterexample found");
              finish abstraction (Falsified t)
            | Concretize.Not_found_here | Concretize.Gave_up _ -> (
              (match concrete with
              | Concretize.Gave_up r ->
                Log.info (fun m ->
                    m "concretization gave up (%a); escalating backtrack \
                       budget"
                      F.pp_resource r);
                Supervisor.escalate sup
              | _ -> ());
              (* Step 4: refine. Ladder: crucial registers, then (on an
                 empty refinement) the highest-fanout pseudo-input, then
                 a BMC re-check at the abstract trace's depth. *)
              let crucial () =
                let r =
                  Refine.crucial_registers
                    ~atpg_limits:
                      (Supervisor.clamp_limits sup Supervisor.Refine
                         config.abstract_atpg)
                    ~bad abstraction ~abstract_trace ()
                in
                if r.Refine.kept = [] then Error F.No_refinement
                else Ok (`Add (r.Refine.kept, List.length r.Refine.candidates))
              in
              let highest_fanout () =
                match Abstraction.pseudo_inputs abstraction with
                | [] ->
                  (* no pseudo-inputs means the model is closed: the
                     abstract trace should have concretized — let the
                     BMC rung arbitrate *)
                  Error (F.Invariant "closed abstract model, spurious trace")
                | ps ->
                  let fanout s = Array.length circuit.Circuit.fanouts.(s) in
                  let best =
                    List.fold_left
                      (fun a s -> if fanout s > fanout a then s else a)
                      (List.hd ps) (List.tl ps)
                  in
                  Ok (`Add ([ best ], List.length ps))
              in
              let bmc_recheck () =
                match
                  Bmc.falsify
                    ~limits:(Supervisor.concrete_limits sup config.concrete_atpg)
                    circuit ~bad ~max_depth:(Trace.length abstract_trace)
                with
                | Bmc.Found t, _ -> Ok (`Cex t)
                | Bmc.Exhausted, _ -> Error F.No_refinement
                | Bmc.Gave_up _, _ -> Error F.Backtracks
              in
              let refinement =
                Telemetry.with_span "rfn.refine" ~attrs (fun () ->
                    Supervisor.run sup ~site:Supervisor.Refine
                      ~engine:F.Seq_atpg ~phase:F.Refinement ~iteration:iter
                      [
                        (Supervisor.Primary, "crucial-registers", crucial);
                        (Supervisor.Fallback, "highest-fanout", highest_fanout);
                        (Supervisor.Fallback, "bmc-recheck", bmc_recheck);
                      ])
              in
              Rfn_obs.Sampler.tick "rfn.refine";
              match refinement with
              | Ok (`Add (regs, candidates)) ->
                Log.info (fun m ->
                    m "refining with %d register(s) (%d candidates)"
                      (List.length regs) candidates);
                let delta = Session.refine session ~add:regs in
                Log.debug (fun m ->
                    m "delta: %d promoted, %d fresh, %d new signals"
                      (List.length delta.Abstraction.promoted)
                      (List.length delta.Abstraction.fresh_regs)
                      delta.Abstraction.new_signals);
                record_hybrid ~candidates ~added:(List.length regs)
                  ~promoted:(List.map (Circuit.name circuit) regs)
                  ~regs_after:
                    (Abstraction.num_regs (Session.abstraction session))
                  ~concretize:concretize_desc ~outcome:"refined" ();
                check ~iter ~engine:F.Cegar ~phase:F.Refinement
                  ~what:"post-refine varmap" (fun () ->
                    match Session.varmap session with
                    | None -> []
                    | Some vm -> Rfn_lint.Check.varmap vm);
                iterate (iter + 1)
              | Ok (`Cex t) ->
                check_concrete_trace t;
                record_hybrid ~concretize:concretize_desc
                  ~outcome:"falsified" ();
                Log.info (fun m ->
                    m "BMC re-check found a concrete counterexample");
                finish abstraction (Falsified t)
              | Error failure ->
                record_hybrid ~concretize:concretize_desc
                  ~outcome:
                    ("aborted:" ^ F.resource_to_string failure.F.resource)
                  ();
                finish abstraction (Aborted failure)))
          | Ok [] ->
            (* unreachable: the ladder maps [] to an Error *)
            record ~outcome:"aborted:invariant" res.Reach.steps;
            finish abstraction
              (Aborted
                 (F.make ~iteration:iter ~engine:F.Hybrid
                    ~phase:F.Trace_extraction
                    (F.Invariant "hybrid engine returned no abstract traces")))))
    end
  in
  try iterate !start_iter
  with Check_violation failure ->
    finish (Session.abstraction session) (Aborted failure)

let verify ?(config = default_config) circuit prop =
  let session = prepare ~config circuit ~roots:(Property.roots prop) in
  verify_in_session ~config session prop

let check_coi_model_checking ?(node_limit = 2_000_000) ?(max_steps = 10_000)
    ?max_seconds circuit prop =
  let started = Telemetry.now () in
  let bad = prop.Property.bad in
  let coi = Coi.compute circuit ~roots:(Property.roots prop) in
  let view = Coi.restrict_view circuit coi ~roots:(Property.roots prop) in
  let result =
    match
      let vm = Varmap.make ~node_limit view in
      let fn = Symbolic.functions vm in
      let img = Image.make vm in
      let init = Symbolic.initial_states vm in
      let bad_states = Reach.bad_predicate vm ~fn ~bad in
      Reach.run ~max_steps ?max_seconds img ~vm ~init ~bad_states
    with
    | exception Bdd.Limit_exceeded -> `Aborted F.Nodes
    | res -> (
      match res.Reach.outcome with
      | Reach.Proved -> `Proved
      | Reach.Reached k | Reach.Closed k -> `Reached k
      | Reach.Aborted r -> `Aborted r)
  in
  (result, Telemetry.now () -. started)
