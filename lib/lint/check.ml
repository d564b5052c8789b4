module Circuit = Rfn_circuit.Circuit
module Sview = Rfn_circuit.Sview
module Bitset = Rfn_circuit.Bitset
module Trace = Rfn_circuit.Trace
module Cube = Rfn_circuit.Cube
module Varmap = Rfn_mc.Varmap
module Bdd = Rfn_bdd.Bdd
module Solver = Rfn_sat.Solver
module Cnf = Rfn_sat.Cnf
module Telemetry = Rfn_obs.Telemetry

let env_enabled () =
  match Sys.getenv_opt "RFN_CHECK" with
  | Some ("1" | "true" | "yes" | "on") -> true
  | _ -> false

exception Violation of string * Lint.finding list

let violation_message what findings =
  match findings with
  | [] -> what
  | f :: rest ->
    let more =
      match List.length rest with
      | 0 -> ""
      | n -> Printf.sprintf " (+%d more)" n
    in
    Printf.sprintf "%s: %s%s" what f.Lint.message more

let c_passes = Telemetry.counter "check.invariant_passes"
let c_failures = Telemetry.counter "check.invariant_failures"

let ensure ~what findings =
  match findings with
  | [] -> Telemetry.incr c_passes
  | f :: _ ->
    Telemetry.incr c_failures;
    Telemetry.event "check.violation"
      [
        ("what", Rfn_obs.Json.Str what);
        ("message", Rfn_obs.Json.Str f.Lint.message);
      ];
    raise (Violation (what, findings))

let check ~pass ?signals fmt =
  Printf.ksprintf (fun msg -> Lint.finding ~pass ~severity:Lint.Error ?signals msg) fmt

(* ---- varmap ---------------------------------------------------------- *)

let varmap vm =
  let view = Varmap.view vm in
  let c = view.Sview.circuit in
  let nv = Bdd.nvars (Varmap.man vm) in
  let name s = Circuit.name c s in
  let acc = ref [] in
  let emit f = acc := f :: !acc in
  (* one slot per variable: catches two roles mapped to one level *)
  let owner = Hashtbl.create 197 in
  let claim ~what s v expected_role =
    if v < 0 || v >= nv then
      emit
        (check ~pass:"varmap" ~signals:[ s ]
           "%s variable %d of signal %S outside manager range (nvars=%d)" what
           v (name s) nv)
    else begin
      (match Hashtbl.find_opt owner v with
      | Some prev ->
        emit
          (check ~pass:"varmap" ~signals:[ s ]
             "variable %d carries both %s and %s of signal %S" v prev what
             (name s))
      | None -> Hashtbl.add owner v (Printf.sprintf "%s of %S" what (name s)));
      match Varmap.role vm v with
      | role when role = expected_role -> ()
      | _ ->
        emit
          (check ~pass:"varmap" ~signals:[ s ]
             "role table disagrees on variable %d (%s of signal %S)" v what
             (name s))
      | exception Invalid_argument _ ->
        emit
          (check ~pass:"varmap" ~signals:[ s ]
             "variable %d (%s of signal %S) has no role entry" v what (name s))
    end
  in
  Array.iter
    (fun r ->
      (match Varmap.cur_var_opt vm r with
      | Some v -> claim ~what:"current-state" r v (Varmap.Cur r)
      | None ->
        emit
          (check ~pass:"varmap" ~signals:[ r ]
             "register %S has no current-state variable" (name r)));
      match Varmap.nxt_var_opt vm r with
      | Some v -> claim ~what:"next-state" r v (Varmap.Nxt r)
      | None ->
        emit
          (check ~pass:"varmap" ~signals:[ r ]
             "register %S has no next-state variable" (name r)))
    view.Sview.regs;
  Array.iter
    (fun i ->
      match Varmap.inp_var_opt vm i with
      | Some v -> claim ~what:"input" i v (Varmap.Inp i)
      | None ->
        emit
          (check ~pass:"varmap" ~signals:[ i ]
             "free input %S has no input variable" (name i)))
    view.Sview.free_inputs;
  List.rev !acc

(* ---- session cone cache ---------------------------------------------- *)

let cone_cache vm ~signals =
  let view = Varmap.view vm in
  let c = view.Sview.circuit in
  let n = Circuit.num_signals c in
  let have = Bitset.create n in
  let acc = ref [] in
  List.iter
    (fun s ->
      if s < 0 || s >= n || not (Sview.mem view s) then
        acc :=
          check ~pass:"cone-cache"
            ~signals:(if s >= 0 && s < n then [ s ] else [])
            "stale cone for signal %d%s (outside the view)" s
            (if s >= 0 && s < n then Printf.sprintf " (%s)" (Circuit.name c s)
             else "")
          :: !acc
      else Bitset.add have s)
    signals;
  Bitset.iter
    (fun s ->
      if not (Bitset.mem have s) then
        acc :=
          check ~pass:"cone-cache" ~signals:[ s ]
            "signal %S of the view has no compiled cone" (Circuit.name c s)
          :: !acc)
    view.Sview.inside;
  List.rev !acc

(* ---- traces ---------------------------------------------------------- *)

let trace ?input_ok view ~depth t =
  let c = view.Sview.circuit in
  let input_ok =
    match input_ok with Some f -> f | None -> Sview.is_free view
  in
  let acc = ref [] in
  let k = Trace.length t in
  if k <> depth then
    acc :=
      [ check ~pass:"trace" "trace has %d states, expected depth %d" k depth ];
  for i = 0 to k - 1 do
    List.iter
      (fun (s, _) ->
        if not (Sview.is_state view s) then
          acc :=
            check ~pass:"trace" ~signals:[ s ]
              "state cube %d pins %S, not a register of the view" i
              (Circuit.name c s)
            :: !acc)
      (Cube.to_list (Trace.state t i));
    List.iter
      (fun (s, _) ->
        if not (input_ok s) then
          acc :=
            check ~pass:"trace" ~signals:[ s ]
              "input cube %d pins %S, not an input of the view" i
              (Circuit.name c s)
            :: !acc)
      (Cube.to_list (Trace.input t i))
  done;
  List.rev !acc

(* ---- CNF ------------------------------------------------------------- *)

let cnf u =
  let s = Cnf.solver u in
  let nv = Solver.nvars s in
  let acc = ref [] in
  let nbad = ref 0 in
  Solver.iter_clauses s (fun lits ->
      let seen = Hashtbl.create 7 in
      Array.iter
        (fun l ->
          let v = Solver.var_of l in
          let bad fmt = Printf.ksprintf (fun m -> Some m) fmt in
          let problem =
            if v < 0 || v >= nv then
              bad "literal over unallocated variable %d (nvars=%d)" v nv
            else
              match Hashtbl.find_opt seen v with
              | Some l' when l' = l -> bad "duplicate literal on variable %d" v
              | Some _ -> bad "complementary literals on variable %d" v
              | None ->
                Hashtbl.add seen v l;
                None
          in
          match problem with
          | None -> ()
          | Some msg ->
            incr nbad;
            (* cap the rendered findings; a corrupted instance can have
               thousands of bad clauses and one is enough to abort *)
            if !nbad <= 5 then acc := check ~pass:"cnf" "clause %s" msg :: !acc)
        lits);
  if !nbad > 5 then
    acc := check ~pass:"cnf" "(%d further clause violations)" (!nbad - 5) :: !acc;
  List.rev !acc
