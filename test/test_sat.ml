(* The SAT backend, three ways:

   - the CDCL solver against a brute-force reference on random CNFs
     (verdicts, model soundness) plus a DRAT-style self-check that
     every learned clause is entailed by the original formula;
   - unit tests of the incremental interface (assumptions, budgets,
     reuse after Unsat-under-assumptions);
   - [Sat_bmc] against [Bmc] on the design zoo (same verdicts, same
     shortest-counterexample depths). *)

open Rfn_circuit
module Solver = Rfn_sat.Solver
module Bmc = Rfn_core.Bmc
module Sat_bmc = Rfn_core.Sat_bmc
module Sim3v = Rfn_sim3v.Sim3v
module F = Rfn_failure

(* ------------------------------------------------------------------ *)
(* Random CNFs and a brute-force reference                             *)
(* ------------------------------------------------------------------ *)

(* A clause is a list of (var, sign); a CNF a clause list over
   variables [0, nvars). *)
type cnf = { nvars : int; clauses : (int * bool) list list }

let cnf_gen =
  QCheck.Gen.(
    int_range 1 8 >>= fun nvars ->
    int_range 1 30 >>= fun nclauses ->
    let lit_gen =
      pair (int_bound (nvars - 1)) bool
    in
    let clause_gen = int_range 1 4 >>= fun n -> list_size (return n) lit_gen in
    list_size (return nclauses) clause_gen >>= fun clauses ->
    return { nvars; clauses })

let cnf_print { nvars; clauses } =
  Printf.sprintf "%d vars: %s" nvars
    (String.concat " & "
       (List.map
          (fun cl ->
            "("
            ^ String.concat "|"
                (List.map
                   (fun (v, s) -> (if s then "" else "~") ^ string_of_int v)
                   cl)
            ^ ")")
          clauses))

let arbitrary_cnf = QCheck.make cnf_gen ~print:cnf_print

let model_satisfies m clauses =
  List.for_all
    (List.exists (fun (v, s) -> (m lsr v) land 1 = 1 = s))
    clauses

let brute_force_sat { nvars; clauses } =
  let rec go m =
    if m >= 1 lsl nvars then false
    else model_satisfies m clauses || go (m + 1)
  in
  go 0

let solver_of ?log_learnts { nvars; clauses } =
  let s = Solver.create ?log_learnts () in
  for _ = 1 to nvars do
    ignore (Solver.new_var s)
  done;
  List.iter
    (fun cl -> Solver.add_clause s (List.map (fun (v, b) -> Solver.lit v b) cl))
    clauses;
  s

let test_random_cnf_differential () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:500 ~name:"solver agrees with brute force"
       arbitrary_cnf
       (fun cnf ->
         let s = solver_of cnf in
         match Solver.solve s with
         | Solver.Sat ->
           (* the verdict must match AND the reported model must
              actually satisfy every clause *)
           let m = ref 0 in
           for v = 0 to cnf.nvars - 1 do
             if Solver.value s v then m := !m lor (1 lsl v)
           done;
           brute_force_sat cnf && model_satisfies !m cnf.clauses
         | Solver.Unsat -> not (brute_force_sat cnf)
         | Solver.Unknown _ -> false))

let test_learned_clauses_entailed () =
  (* DRAT-in-spirit: every clause the solver learns must be a logical
     consequence of the input formula — checked by brute force: no
     assignment satisfies the formula while falsifying the learned
     clause. *)
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:200 ~name:"learned clauses are entailed"
       arbitrary_cnf
       (fun cnf ->
         let s = solver_of ~log_learnts:true cnf in
         ignore (Solver.solve s);
         List.for_all
           (fun learnt ->
             let falsifies m =
               List.for_all
                 (fun l ->
                   (m lsr Solver.var_of l) land 1 = 1 <> Solver.sign_of l)
                 learnt
             in
             let rec counter m =
               if m >= 1 lsl cnf.nvars then false
               else
                 (model_satisfies m cnf.clauses && falsifies m)
                 || counter (m + 1)
             in
             not (counter 0))
           (Solver.learnt_clauses s)))

(* ------------------------------------------------------------------ *)
(* Incremental interface                                               *)
(* ------------------------------------------------------------------ *)

let result_testable =
  Alcotest.testable
    (fun ppf -> function
      | Solver.Sat -> Format.pp_print_string ppf "Sat"
      | Solver.Unsat -> Format.pp_print_string ppf "Unsat"
      | Solver.Unknown r ->
        Format.fprintf ppf "Unknown(%s)" (F.resource_to_string r))
    ( = )

let test_assumptions () =
  let s = Solver.create () in
  let x = Solver.lit (Solver.new_var s) true in
  let y = Solver.lit (Solver.new_var s) true in
  Solver.add_clause s [ x; y ];
  Alcotest.check result_testable "x|y alone is sat" Solver.Sat
    (Solver.solve s);
  Alcotest.check result_testable "unsat under ~x,~y" Solver.Unsat
    (Solver.solve ~assumptions:[ Solver.neg x; Solver.neg y ] s);
  (* assumptions are per-call: the instance is unpoisoned *)
  Alcotest.check result_testable "sat again without assumptions" Solver.Sat
    (Solver.solve s);
  Alcotest.check result_testable "sat under ~x (y must hold)" Solver.Sat
    (Solver.solve ~assumptions:[ Solver.neg x ] s);
  Alcotest.(check bool) "model sets y" true (Solver.value_lit s y);
  (* incremental: strengthen and re-solve on the same instance *)
  Solver.add_clause s [ Solver.neg y ];
  Alcotest.check result_testable "after adding ~y, ~x forces unsat"
    Solver.Unsat
    (Solver.solve ~assumptions:[ Solver.neg x ] s);
  Alcotest.check result_testable "but x|~y still sat" Solver.Sat
    (Solver.solve s)

let test_empty_clause () =
  let s = Solver.create () in
  let x = Solver.lit (Solver.new_var s) true in
  Solver.add_clause s [ x ];
  Solver.add_clause s [ Solver.neg x ];
  Alcotest.check result_testable "contradictory units" Solver.Unsat
    (Solver.solve s)

(* Pigeonhole PHP(n+1, n): n+1 pigeons into n holes — small, provably
   unsatisfiable, and needs real conflict-driven search. *)
let pigeonhole s n =
  let var = Array.init (n + 1) (fun _ -> Array.init n (fun _ -> 0)) in
  for p = 0 to n do
    for h = 0 to n - 1 do
      var.(p).(h) <- Solver.new_var s
    done
  done;
  for p = 0 to n do
    Solver.add_clause s
      (List.init n (fun h -> Solver.lit var.(p).(h) true))
  done;
  for h = 0 to n - 1 do
    for p1 = 0 to n do
      for p2 = p1 + 1 to n do
        Solver.add_clause s
          [ Solver.lit var.(p1).(h) false; Solver.lit var.(p2).(h) false ]
      done
    done
  done

let test_conflict_budget () =
  let s = Solver.create () in
  pigeonhole s 5;
  (match
     Solver.solve ~limits:{ Solver.max_conflicts = 1; max_seconds = None } s
   with
  | Solver.Unknown F.Conflicts -> ()
  | r ->
    Alcotest.failf "expected Unknown(Conflicts), got %a"
      (fun ppf -> Alcotest.pp result_testable ppf)
      r);
  (* the budget is per call, so an unlimited re-solve finishes *)
  Alcotest.check result_testable "php(6,5) is unsat" Solver.Unsat
    (Solver.solve s);
  let st = Solver.stats s in
  Alcotest.(check bool) "search had conflicts" true (st.Solver.conflicts > 0);
  Alcotest.(check bool) "search learned clauses" true (st.Solver.learned > 0)

(* ------------------------------------------------------------------ *)
(* Sat_bmc vs Bmc on the zoo                                           *)
(* ------------------------------------------------------------------ *)

let zoo () =
  let fifo = Rfn_designs.Fifo.(make ~params:small ()) in
  let fc = fifo.Rfn_designs.Fifo.circuit in
  [
    ("arbiter/bad", Helpers.arbiter_design (), "bad");
    ("counter3/at_limit", Helpers.counter_design ~width:3 ~limit:7, "at_limit");
    ("deep_bug3/bad", Helpers.deep_bug_design ~width:3, "bad");
    ("fifo_small/psh_hf", fc, fifo.Rfn_designs.Fifo.psh_hf.Property.name);
    ("fifo_small/psh_full", fc, fifo.Rfn_designs.Fifo.psh_full.Property.name);
  ]

let test_bmc_differential () =
  List.iter
    (fun (name, circuit, out) ->
      let bad = Circuit.output circuit out in
      let max_depth = 12 in
      let atpg, _ = Bmc.falsify circuit ~bad ~max_depth in
      let sat, _ = Sat_bmc.falsify circuit ~bad ~max_depth in
      match (atpg, sat) with
      | Bmc.Found ta, Bmc.Found ts ->
        (* both engines promise shortest counterexamples *)
        Alcotest.(check int)
          (name ^ ": same counterexample depth")
          (Trace.length ta) (Trace.length ts);
        Alcotest.(check bool)
          (name ^ ": SAT trace replays concretely")
          true
          (Sim3v.replay_concrete circuit ts ~bad)
      | Bmc.Exhausted, Bmc.Exhausted -> ()
      | Bmc.Gave_up d, Bmc.Found ts ->
        (* ATPG ran out of budget at depth d after exhausting every
           shallower depth — a SAT counterexample below d would mean
           one of the engines is wrong *)
        Alcotest.(check bool)
          (name ^ ": SAT witness not shallower than ATPG's exhausted depths")
          true
          (Trace.length ts >= d);
        Alcotest.(check bool)
          (name ^ ": SAT trace replays concretely")
          true
          (Sim3v.replay_concrete circuit ts ~bad)
      | Bmc.Gave_up _, (Bmc.Exhausted | Bmc.Gave_up _)
      | Bmc.Exhausted, Bmc.Gave_up _ ->
        (* one engine's budget ran out; nothing left to compare *)
        ()
      | _ ->
        let show = function
          | Bmc.Found t -> Printf.sprintf "Found(len %d)" (Trace.length t)
          | Bmc.Exhausted -> "Exhausted"
          | Bmc.Gave_up d -> Printf.sprintf "Gave_up(%d)" d
        in
        Alcotest.failf "%s: engines disagree (atpg %s, sat %s)" name
          (show atpg) (show sat))
    (zoo ())

let () =
  (* keep the differentials deterministic under the chaos CI job *)
  Unix.putenv "RFN_INJECT_FAULTS" "";
  Alcotest.run "sat"
    [
      ( "solver",
        [
          Alcotest.test_case "random CNF differential" `Quick
            test_random_cnf_differential;
          Alcotest.test_case "learned clauses entailed" `Quick
            test_learned_clauses_entailed;
          Alcotest.test_case "assumptions and incrementality" `Quick
            test_assumptions;
          Alcotest.test_case "contradictory units" `Quick test_empty_clause;
          Alcotest.test_case "conflict budget" `Quick test_conflict_budget;
        ] );
      ( "sat-bmc",
        [
          Alcotest.test_case "zoo differential vs ATPG BMC" `Quick
            test_bmc_differential;
        ] );
    ]
