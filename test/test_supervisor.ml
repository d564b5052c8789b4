(* Chaos tests for the engine supervisor: inject a fault at each
   supervised site and check the retry/fallback ladders recover to the
   same verdict, the deadline budget is honoured within the documented
   grace, and failures that survive are structured. *)

open Rfn_circuit
module Rfn = Rfn_core.Rfn
module Supervisor = Rfn_core.Supervisor
module Atpg = Rfn_atpg.Atpg
module Telemetry = Rfn_obs.Telemetry
module F = Rfn_failure

let quick_config =
  {
    Rfn.default_config with
    Rfn.max_iterations = 32;
    node_limit = 500_000;
    mc_max_steps = 200;
    (* chaos tests control injection themselves — never inherit the
       environment's RFN_INJECT_FAULTS *)
    inject = Some (fun _ -> None);
  }

let all_sites =
  [
    Supervisor.Abstract_mc;
    Supervisor.Hybrid_extract;
    Supervisor.Concretize;
    Supervisor.Refine;
  ]

(* Fault exactly one site, once. *)
let inject_one site =
  let fired = ref false in
  fun s ->
    if s = site && not !fired then begin
      fired := true;
      Some Supervisor.Fail
    end
    else None

let counter_value name = Telemetry.counter_value (Telemetry.counter name)

(* ---- inject_of_spec parsing ------------------------------------------ *)

let test_spec_parsing () =
  Alcotest.(check bool) "empty spec is off" true (Supervisor.inject_of_spec "" = None);
  Alcotest.(check bool) "off is off" true (Supervisor.inject_of_spec "off" = None);
  (match Supervisor.inject_of_spec "all" with
  | None -> Alcotest.fail "all parses to a hook"
  | Some hook ->
    List.iter
      (fun site ->
        Alcotest.(check bool)
          (Supervisor.site_to_string site ^ " faults once")
          true
          (hook site = Some Supervisor.Fail);
        Alcotest.(check bool)
          (Supervisor.site_to_string site ^ " passes after")
          true (hook site = None))
      all_sites);
  (match Supervisor.inject_of_spec "hybrid, refine" with
  | None -> Alcotest.fail "site list parses to a hook"
  | Some hook ->
    Alcotest.(check bool) "unlisted site passes" true
      (hook Supervisor.Abstract_mc = None);
    Alcotest.(check bool) "listed site faults" true
      (hook Supervisor.Hybrid_extract = Some Supervisor.Fail));
  List.iter
    (fun spec ->
      match Supervisor.inject_of_spec spec with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "unknown site %S must be rejected" spec)
    [ "bogus"; "worker-kill" ]

(* ---- budgeting and escalation unit tests ----------------------------- *)

let test_clamp_limits () =
  let sup =
    Supervisor.start ~inject:(fun _ -> None) Supervisor.default_policy
      ~max_seconds:(Some 10.0)
  in
  let base = { Atpg.max_backtracks = 1_000; max_seconds = Some 60.0 } in
  let clamped = Supervisor.clamp_limits sup Supervisor.Concretize base in
  (match clamped.Atpg.max_seconds with
  | Some s ->
    Alcotest.(check bool) "clamped to the concretize share" true
      (s <= 10.0 *. Supervisor.default_policy.Supervisor.concretize_share)
  | None -> Alcotest.fail "a global budget must impose a per-engine one");
  Alcotest.(check int) "backtracks untouched" 1_000 clamped.Atpg.max_backtracks;
  (* no global budget: the base limits pass through *)
  let unlimited =
    Supervisor.start ~inject:(fun _ -> None) Supervisor.default_policy
      ~max_seconds:None
  in
  Alcotest.(check bool) "no budget, no clamp" true
    (Supervisor.clamp_limits unlimited Supervisor.Refine base = base)

let test_escalation () =
  let sup =
    Supervisor.start ~inject:(fun _ -> None) Supervisor.default_policy
      ~max_seconds:None
  in
  Alcotest.(check int) "starts at 1" 1 (Supervisor.escalation sup);
  Supervisor.escalate sup;
  Alcotest.(check int) "grows geometrically" 2 (Supervisor.escalation sup);
  for _ = 1 to 10 do
    Supervisor.escalate sup
  done;
  Alcotest.(check int) "capped" Supervisor.default_policy.Supervisor.backtrack_cap
    (Supervisor.escalation sup);
  let base = { Atpg.max_backtracks = 1_000; max_seconds = None } in
  Alcotest.(check int) "concrete limits scale"
    (1_000 * Supervisor.default_policy.Supervisor.backtrack_cap)
    (Supervisor.concrete_limits sup base).Atpg.max_backtracks

let test_ladder_semantics () =
  let sup =
    Supervisor.start ~inject:(fun _ -> None) Supervisor.default_policy
      ~max_seconds:None
  in
  (* retryable failure falls through; the failure record counts rungs *)
  (match
     Supervisor.run sup ~site:Supervisor.Abstract_mc ~engine:F.Bdd_mc
       ~phase:F.Abstract_mc ~iteration:3
       [
         (Supervisor.Primary, "a", fun () -> Error F.Nodes);
         (Supervisor.Retry, "b", fun () -> Ok 42);
       ]
   with
  | Ok n -> Alcotest.(check int) "retry rung answers" 42 n
  | Error _ -> Alcotest.fail "retryable failure must fall through");
  (* terminal failure stops the ladder *)
  (match
     Supervisor.run sup ~site:Supervisor.Abstract_mc ~engine:F.Bdd_mc
       ~phase:F.Abstract_mc ~iteration:3
       [
         (Supervisor.Primary, "a", fun () -> Error F.Time);
         (Supervisor.Retry, "b", fun () -> Ok 42);
       ]
   with
  | Ok _ -> Alcotest.fail "terminal failure must stop the ladder"
  | Error f ->
    Alcotest.(check bool) "resource" true (f.F.resource = F.Time);
    Alcotest.(check int) "iteration" 3 f.F.iteration);
  (* exhaustion returns the last failure with the retry count *)
  match
    Supervisor.run sup ~site:Supervisor.Refine ~engine:F.Seq_atpg
      ~phase:F.Refinement ~iteration:1
      [
        (Supervisor.Primary, "a", fun () -> Error F.No_refinement);
        (Supervisor.Fallback, "b", fun () -> Error F.Backtracks);
      ]
  with
  | Ok _ -> Alcotest.fail "exhausted ladder must fail"
  | Error f ->
    Alcotest.(check bool) "last resource" true (f.F.resource = F.Backtracks);
    Alcotest.(check int) "one recovery attempt" 1 f.F.retries

(* ---- verdict preservation under injection ---------------------------- *)

(* The FIFO safety property exercises every site (it refines at least
   once); the counter design exercises the falsification path. With a
   fault forced at any single site, the supervised run must recover to
   the very same verdict. *)

let verify_fifo inject =
  let fifo = Rfn_designs.Fifo.(make ~params:small ()) in
  Rfn.verify
    ~config:{ quick_config with Rfn.inject = Some inject }
    fifo.Rfn_designs.Fifo.circuit fifo.Rfn_designs.Fifo.psh_hf

let verify_counter inject =
  let c = Helpers.counter_design ~width:3 ~limit:7 in
  let prop = Property.of_output c "at_limit" in
  (Rfn.verify ~config:{ quick_config with Rfn.inject = Some inject } c prop, c, prop)

let test_injected_site_keeps_verdict site () =
  Telemetry.reset ();
  (match verify_fifo (inject_one site) with
  | Rfn.Proved, _ -> ()
  | Rfn.Falsified _, _ ->
    Alcotest.fail "fifo: injected fault flipped the verdict to False"
  | Rfn.Aborted why, _ ->
    Alcotest.fail ("fifo: no recovery: " ^ F.to_string why));
  Alcotest.(check bool) "fault was injected" true
    (counter_value "supervisor.injected_faults" >= 1);
  (* every site recovers through a later rung, except concretization,
     whose one rung has no successor: its recovery is the
     escalate-and-refine path *)
  if site = Supervisor.Concretize then
    Alcotest.(check bool) "give-up escalated the backtrack budget" true
      (counter_value "supervisor.escalations" >= 1)
  else
    Alcotest.(check bool) "a later rung recovered" true
      (counter_value "supervisor.recoveries" >= 1);
  match verify_counter (inject_one site) with
  | (Rfn.Falsified t, _), c, prop ->
    Alcotest.(check bool) "counterexample still replays" true
      (Rfn_sim3v.Sim3v.replay_concrete c t ~bad:prop.Property.bad)
  | (Rfn.Proved, _), _, _ ->
    Alcotest.fail "counter: injected fault flipped the verdict to True"
  | (Rfn.Aborted why, _), _, _ ->
    Alcotest.fail ("counter: no recovery: " ^ F.to_string why)

let test_all_sites_chaos () =
  (* Everything faults once, the run still converges. *)
  Telemetry.reset ();
  let hook () =
    match Supervisor.inject_of_spec "all" with
    | Some h -> h
    | None -> assert false
  in
  (match verify_fifo (hook ()) with
  | Rfn.Proved, _ -> ()
  | Rfn.Falsified _, _ -> Alcotest.fail "fifo: chaos flipped the verdict"
  | Rfn.Aborted why, _ ->
    Alcotest.fail ("fifo: chaos not recovered: " ^ F.to_string why));
  Alcotest.(check bool) "all faults injected" true
    (counter_value "supervisor.injected_faults" >= 4);
  Alcotest.(check bool) "retries counted" true
    (counter_value "supervisor.retries" >= 1);
  Alcotest.(check bool) "fallbacks counted" true
    (counter_value "supervisor.fallbacks" >= 1);
  match verify_counter (hook ()) with
  | (Rfn.Falsified _, _), _, _ -> ()
  | (Rfn.Proved, _), _, _ -> Alcotest.fail "counter: chaos flipped the verdict"
  | (Rfn.Aborted why, _), _, _ ->
    Alcotest.fail ("counter: chaos not recovered: " ^ F.to_string why)

(* ---- span balance under the ladders ---------------------------------- *)

(* Regression: phase spans used to leak when a rung raised through the
   supervisor (the close lives in a [Fun.protect] finally now). With
   telemetry live, every ladder outcome — recovery, escalation,
   all-site chaos — must leave the span stack exactly balanced. *)
let test_span_depth_balanced () =
  Telemetry.detach ();
  Telemetry.reset ();
  Telemetry.enable ();
  Fun.protect ~finally:(fun () ->
      Telemetry.disable ();
      Telemetry.reset ())
  @@ fun () ->
  List.iter
    (fun site ->
      let tag = Supervisor.site_to_string site in
      ignore (verify_fifo (inject_one site));
      Alcotest.(check int)
        (tag ^ ": balanced after the proving run")
        0
        (Telemetry.current_depth ());
      ignore (verify_counter (inject_one site));
      Alcotest.(check int)
        (tag ^ ": balanced after the falsifying run")
        0
        (Telemetry.current_depth ()))
    all_sites;
  (match Supervisor.inject_of_spec "all" with
  | Some hook -> ignore (verify_fifo hook)
  | None -> Alcotest.fail "inject_of_spec \"all\" must produce a hook");
  Alcotest.(check int) "balanced after all-site chaos" 0
    (Telemetry.current_depth ())

(* ---- deadline grace -------------------------------------------------- *)

let test_budget_grace () =
  (* A slow engine (every primary rung stalls 30s if allowed) must not
     drag a [max_seconds] run past the budget plus the documented
     grace: injected delays are clamped to the remaining budget and the
     supervisor checks the deadline between rungs. *)
  let fifo = Rfn_designs.Fifo.(make ~params:small ()) in
  List.iter
    (fun budget ->
      let config =
        {
          quick_config with
          Rfn.max_seconds = Some budget;
          inject = Some (fun _ -> Some (Supervisor.Delay 30.0));
        }
      in
      let t0 = Telemetry.now () in
      let outcome, stats =
        Rfn.verify ~config fifo.Rfn_designs.Fifo.circuit
          fifo.Rfn_designs.Fifo.psh_hf
      in
      let elapsed = Telemetry.now () -. t0 in
      let grace = Supervisor.default_policy.Supervisor.grace_seconds in
      Alcotest.(check bool)
        (Printf.sprintf "%.1fs budget honoured (took %.2fs)" budget elapsed)
        true
        (elapsed <= budget +. grace);
      Alcotest.(check bool) "stats seconds consistent" true
        (stats.Rfn.seconds <= budget +. grace);
      (* a blown budget must surface as a structured time-out, never a
         wrong verdict *)
      match outcome with
      | Rfn.Aborted f ->
        Alcotest.(check bool) "timed out on the clock" true
          (f.F.resource = F.Time)
      | Rfn.Proved | Rfn.Falsified _ -> ())
    [ 0.3; 0.6 ]

(* ---- structured aborts ----------------------------------------------- *)

let test_aborts_are_structured () =
  (* Iteration exhaustion carries the loop context. *)
  let c = Helpers.counter_design ~width:3 ~limit:7 in
  let prop = Property.of_output c "at_limit" in
  (match
     Rfn.verify ~config:{ quick_config with Rfn.max_iterations = 0 } c prop
   with
  | Rfn.Aborted f, _ ->
    Alcotest.(check bool) "iteration resource" true (f.F.resource = F.Iterations);
    Alcotest.(check bool) "cegar engine" true (f.F.engine = F.Cegar)
  | _ -> Alcotest.fail "zero iterations must abort");
  (* The baseline reports a structured resource too. *)
  match Rfn.check_coi_model_checking ~max_steps:0 c prop with
  | `Aborted F.Steps, _ -> ()
  | `Aborted r, _ ->
    Alcotest.fail ("wrong resource: " ^ F.resource_to_string r)
  | (`Proved | `Reached _), _ -> Alcotest.fail "zero steps must abort"

let site_tests =
  List.map
    (fun site ->
      Alcotest.test_case
        ("fault at " ^ Supervisor.site_to_string site ^ " keeps the verdict")
        `Quick
        (test_injected_site_keeps_verdict site))
    all_sites

let tests =
  [
    Alcotest.test_case "inject spec parsing" `Quick test_spec_parsing;
    Alcotest.test_case "deadline clamps engine limits" `Quick test_clamp_limits;
    Alcotest.test_case "backtrack escalation is geometric and capped" `Quick
      test_escalation;
    Alcotest.test_case "ladder retry/terminal semantics" `Quick
      test_ladder_semantics;
  ]
  @ site_tests
  @ [
      Alcotest.test_case "all-site chaos keeps both verdicts" `Quick
        test_all_sites_chaos;
      Alcotest.test_case "span depth balanced under every ladder outcome"
        `Quick test_span_depth_balanced;
      Alcotest.test_case "slow engines respect the budget grace" `Quick
        test_budget_grace;
      Alcotest.test_case "aborts carry structured reasons" `Quick
        test_aborts_are_structured;
    ]

let () = Alcotest.run "supervisor" [ ("supervisor", tests) ]
