open Rfn_circuit
module Bdd = Rfn_bdd.Bdd
module Varmap = Rfn_mc.Varmap
module Symbolic = Rfn_mc.Symbolic
module Image = Rfn_mc.Image
module Atpg = Rfn_atpg.Atpg
module Mincut = Rfn_mincut.Mincut
module Telemetry = Rfn_obs.Telemetry

let c_no_cut = Telemetry.counter "hybrid.no_cut_steps"
let c_min_cut = Telemetry.counter "hybrid.min_cut_steps"
let c_retries = Telemetry.counter "hybrid.cube_retries"

exception Extraction_failed of Rfn_failure.resource

type result = {
  trace : Trace.t;
  cut_size : int;
  model_inputs : int;
  no_cut_steps : int;
  min_cut_steps : int;
}

(* Split a signal-space cube into (registers, free inputs, internal).
   Internal literals are the mark of a min-cut cube. *)
let split view cube_lits =
  let regs = ref [] and inps = ref [] and internal = ref [] in
  List.iter
    (fun ((s, _) as lit) ->
      if Sview.is_state view s then regs := lit :: !regs
      else if Sview.is_free view s then inps := lit :: !inps
      else internal := lit :: !internal)
    cube_lits;
  (List.rev !regs, List.rev !inps, List.rev !internal)

let rec extract_multi ?atpg_limits ?max_cube_tries ?use_mincut ?fn ~count vm
    ~rings ~target ~k =
  let first =
    extract ?atpg_limits ?max_cube_tries ?use_mincut ?fn vm ~rings ~target ~k
  in
  if count <= 1 then [ first ]
  else begin
    (* Exclude this trace's final state/input cube and pull another
       trace, until the target set is exhausted. *)
    let man = Varmap.man vm in
    let t = first.trace in
    let final = Trace.length t - 1 in
    let lits =
      Cube.to_list (Trace.state t final) @ Cube.to_list (Trace.input t final)
    in
    let as_vars =
      List.map
        (fun (s, b) ->
          match Varmap.cur_var_opt vm s with
          | Some v -> (v, b)
          | None -> (Varmap.inp_var vm s, b))
        lits
    in
    let remaining = Bdd.diff man target (Bdd.cube man as_vars) in
    if Bdd.is_zero (Bdd.dand man rings.(k) remaining) then [ first ]
    else
      first
      :: extract_multi ?atpg_limits ?max_cube_tries ?use_mincut ?fn
           ~count:(count - 1) vm ~rings ~target:remaining ~k
  end

and extract ?(atpg_limits = Atpg.default_limits) ?(max_cube_tries = 64)
    ?(use_mincut = true) ?fn vm ~rings ~target ~k =
  let man = Varmap.man vm in
  let view = Varmap.view vm in
  let target = Bdd.protect man target in
  (* The manager may outlive this extraction (it belongs to the
     verification session), so every protection taken here is released
     on the way out — protections are refcounted, so releasing a handle
     that aliases a session cone leaves the session's own pin alone. *)
  let local_memo : (int, Bdd.t) Hashtbl.t = Hashtbl.create 997 in
  let release () =
    Bdd.unprotect man target;
    Hashtbl.iter (fun _ f -> Bdd.unprotect man f) local_memo
  in
  Fun.protect ~finally:release @@ fun () ->
  (* Min-cut design of the abstract model; its cut signals get input
     variables so pre-image cubes can mention them. With
     [use_mincut:false] (the supervisor's fallback when the min-cut
     path fails) pre-images run directly on the abstract model: every
     cube is then a no-cut cube and ATPG extension is never needed, at
     the cost of pre-imaging over all free inputs. *)
  let cut_size, fn_mc =
    if use_mincut then begin
      let mc = Mincut.compute view in
      Varmap.add_input_vars vm mc.Mincut.cut;
      ignore (Symbolic.compile_view vm mc.Mincut.mc ~memo:local_memo);
      (List.length mc.Mincut.cut, fun s -> Hashtbl.find local_memo s)
    end
    else
      ( Sview.num_free_inputs view,
        match fn with
        | Some fn -> fn (* the session's cone cache, compiled already *)
        | None ->
          ignore (Symbolic.compile_view vm view ~memo:local_memo);
          fun s -> Hashtbl.find local_memo s )
  in
  let no_cut_steps = ref 0 and min_cut_steps = ref 0 in
  (* Final cycle: fattest cube of ring k ∧ bad-function, giving the
     last state cube and the final-cycle input witness. *)
  let final = Bdd.dand man rings.(k) target in
  if Bdd.is_zero final then
    invalid_arg "Hybrid.extract: ring k does not touch the bad states";
  let final_lits = Varmap.cube_of_bdd_cube vm (Bdd.fattest_cube man final) in
  let final_regs, final_inps, final_internal = split view final_lits in
  assert (final_internal = []);
  let states = Array.make (k + 1) Cube.empty in
  let inputs = Array.make (k + 1) Cube.empty in
  states.(k) <- Cube.of_list final_regs;
  inputs.(k) <- Cube.of_list final_inps;
  (* Extend a min-cut cube into a no-cut cube by combinational ATPG on
     the abstract model: pin every literal (register and free-input
     literals are root assignments, internal literals objectives). *)
  let extend_cube lits =
    let pins = List.map (fun (s, b) -> (0, s, b)) lits in
    match
      Atpg.solve ~free_init:true ~limits:atpg_limits view ~frames:1 ~pins ()
    with
    | Atpg.Sat t, _ -> Some (Trace.state t 0, Trace.input t 0)
    | (Atpg.Unsat | Atpg.Abort _), _ -> None
  in
  for j = k downto 1 do
    if
      Bdd.node_limit man < max_int
      && 4 * Bdd.num_nodes man > 3 * Bdd.node_limit man
    then Bdd.gc man ~roots:(Array.to_list rings);
    let target = Symbolic.state_cube vm states.(j) in
    let pre =
      Telemetry.with_span "hybrid.preimage" (fun () ->
          Image.pre_via_compose vm ~fn:fn_mc target)
    in
    let r = Bdd.dand man rings.(j - 1) pre in
    if Bdd.is_zero r then
      raise
        (Extraction_failed
           (Rfn_failure.Invariant "empty pre-image (ring invariant broken)"));
    (* Enumerate cubes of r fattest-first until one yields a no-cut
       cube, as the paper prescribes. *)
    let rec attempt remaining tries =
      if tries > max_cube_tries || Bdd.is_zero remaining then
        raise (Extraction_failed Rfn_failure.Cube_tries)
      else
        let bdd_cube = Bdd.fattest_cube man remaining in
        let lits = Varmap.cube_of_bdd_cube vm bdd_cube in
        let regs, inps, internal = split view lits in
        if internal = [] then begin
          incr no_cut_steps;
          Telemetry.incr c_no_cut;
          (Cube.of_list regs, Cube.of_list inps)
        end
        else begin
          match extend_cube lits with
          | Some (state, input) ->
            incr min_cut_steps;
            Telemetry.incr c_min_cut;
            state, input
          | None ->
            Telemetry.incr c_retries;
            attempt
              (Bdd.diff man remaining (Bdd.cube man bdd_cube))
              (tries + 1)
        end
    in
    let state, input = attempt r 1 in
    states.(j - 1) <- state;
    inputs.(j - 1) <- input
  done;
  {
    trace = Trace.make ~states ~inputs;
    cut_size;
    model_inputs = Sview.num_free_inputs view;
    no_cut_steps = !no_cut_steps;
    min_cut_steps = !min_cut_steps;
  }
