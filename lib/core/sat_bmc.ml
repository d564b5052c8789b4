open Rfn_circuit
module Atpg = Rfn_atpg.Atpg
module Solver = Rfn_sat.Solver
module Cnf = Rfn_sat.Cnf
module Sim3v = Rfn_sim3v.Sim3v
module Telemetry = Rfn_obs.Telemetry

module Check = Rfn_lint.Check

let c_falsify = Telemetry.counter "sat_bmc.falsify_calls"
let c_found = Telemetry.counter "sat_bmc.found"

let limits_of_atpg (l : Atpg.limits) =
  { Solver.max_conflicts = l.Atpg.max_backtracks;
    max_seconds = l.Atpg.max_seconds }

(* CNF sanity under RFN_CHECK. A violation is on the check.* counters
   and the sink; the caller degrades it into a give-up. *)
let unrolling_ok unr =
  (not (Check.env_enabled ()))
  ||
  match Check.ensure ~what:"sat_bmc.falsify unrolling" (Check.cnf unr) with
  | () -> true
  | exception Check.Violation _ -> false

let falsify ?(limits = Atpg.default_limits) circuit ~bad ~max_depth =
  Telemetry.incr c_falsify;
  let view = Sview.whole circuit ~roots:[ bad ] in
  let unr = Cnf.create view in
  let solver = Cnf.solver unr in
  let solver_limits = limits_of_atpg limits in
  let rec deepen depth =
    if depth > max_depth then (Bmc.Exhausted, Solver.stats solver)
    else begin
      Cnf.extend unr ~frames:depth;
      if not (unrolling_ok unr) then (Bmc.Gave_up depth, Solver.stats solver)
      else
        let target = Cnf.lit_of unr ~frame:(depth - 1) bad in
        match
          Telemetry.with_span "sat_bmc.solve"
            ~attrs:[ ("depth", Rfn_obs.Json.Int depth) ]
            (fun () ->
              Solver.solve ~limits:solver_limits ~assumptions:[ target ] solver)
        with
        | Solver.Sat ->
          let t = Cnf.trace unr ~frames:depth in
          if Sim3v.replay_concrete circuit t ~bad then begin
            Telemetry.incr c_found;
            (Bmc.Found t, Solver.stats solver)
          end
          else (Bmc.Gave_up depth, Solver.stats solver) (* engine bug guard *)
        | Solver.Unsat -> deepen (depth + 1)
        | Solver.Unknown _ -> (Bmc.Gave_up depth, Solver.stats solver)
    end
  in
  deepen 1
