open Rfn_circuit
module Telemetry = Rfn_obs.Telemetry

let c_decisions = Telemetry.counter "atpg.decisions"
let c_backtracks = Telemetry.counter "atpg.backtracks"
let c_solves = Telemetry.counter "atpg.solves"
let c_aborts = Telemetry.counter "atpg.aborts"
let c_scoap_hits = Telemetry.counter "atpg.scoap_cache_hits"
let c_scoap_misses = Telemetry.counter "atpg.scoap_cache_misses"

type answer = Sat of Trace.t | Unsat | Abort of Rfn_failure.resource
type stats = { decisions : int; backtracks : int }
type limits = { max_backtracks : int; max_seconds : float option }

let default_limits = { max_backtracks = 20_000; max_seconds = None }

(* Ternary values, stored one byte per (frame, signal) cell. *)
let v0 = '\000'
let v1 = '\001'
let vx = '\002'

let of_bool b = if b then v1 else v0

type decision = {
  cell : int;
  mutable value : bool;
  mutable tried_both : bool;
  mark : int;  (* trail height before this decision's assignment *)
}

type solver = {
  view : Sview.t;
  k : int;
  nsig : int;
  values : Bytes.t;
  mutable trail : int array;
  mutable trail_n : int;
  mutable decisions_stack : decision list;
  mutable objectives : (int * bool) list;  (* (cell, required value) *)
  mutable n_decisions : int;
  mutable n_backtracks : int;
  limits : limits;
  started : float;
  free_init : bool;
  cc0 : int array;  (* SCOAP-style 0-controllability per signal *)
  cc1 : int array;
}

(* SCOAP-style controllability: the estimated effort to drive a signal
   to 0 / to 1, used to steer objective backtracing toward the easiest
   justification. Registers and free inputs cost one unit (registers a
   little more, since their value must come through an earlier frame);
   gates combine their fanins' costs per the usual rules. *)
let controllability view =
  let c = view.Sview.circuit in
  let n = Circuit.num_signals c in
  let inf = max_int / 4 in
  let cap x = min x inf in
  let cc0 = Array.make n 1 and cc1 = Array.make n 1 in
  let sum0 fanins = cap (Array.fold_left (fun a f -> a + cc0.(f)) 0 fanins) in
  let sum1 fanins = cap (Array.fold_left (fun a f -> a + cc1.(f)) 0 fanins) in
  let min0 fanins = Array.fold_left (fun a f -> min a cc0.(f)) inf fanins in
  let min1 fanins = Array.fold_left (fun a f -> min a cc1.(f)) inf fanins in
  Array.iter
    (fun s ->
      if Sview.mem view s then
        if Sview.is_free view s then begin
          cc0.(s) <- 1;
          cc1.(s) <- 1
        end
        else
          match Circuit.node c s with
          | Circuit.Const b ->
            cc0.(s) <- (if b then inf else 0);
            cc1.(s) <- (if b then 0 else inf)
          | Circuit.Reg _ ->
            (* controlled through the previous frame *)
            cc0.(s) <- 3;
            cc1.(s) <- 3
          | Circuit.Input -> ()
          | Circuit.Gate (kind, fanins) -> (
            match kind with
            | Gate.Buf ->
              cc0.(s) <- cap (1 + cc0.(fanins.(0)));
              cc1.(s) <- cap (1 + cc1.(fanins.(0)))
            | Gate.Not ->
              cc0.(s) <- cap (1 + cc1.(fanins.(0)));
              cc1.(s) <- cap (1 + cc0.(fanins.(0)))
            | Gate.And ->
              cc0.(s) <- cap (1 + min0 fanins);
              cc1.(s) <- cap (1 + sum1 fanins)
            | Gate.Nand ->
              cc0.(s) <- cap (1 + sum1 fanins);
              cc1.(s) <- cap (1 + min0 fanins)
            | Gate.Or ->
              cc0.(s) <- cap (1 + sum0 fanins);
              cc1.(s) <- cap (1 + min1 fanins)
            | Gate.Nor ->
              cc0.(s) <- cap (1 + min1 fanins);
              cc1.(s) <- cap (1 + sum0 fanins)
            | Gate.Xor | Gate.Xnor ->
              (* approximate: all-zeros vs flip-one-fanin *)
              let base = sum0 fanins in
              let flip =
                Array.fold_left
                  (fun a f -> min a (base - cc0.(f) + cc1.(f)))
                  inf fanins
              in
              let even = cap (1 + base) and odd = cap (1 + cap flip) in
              if kind = Gate.Xor then begin
                cc0.(s) <- even;
                cc1.(s) <- odd
              end
              else begin
                cc0.(s) <- odd;
                cc1.(s) <- even
              end
            | Gate.Mux ->
              let sel = fanins.(0) and d0 = fanins.(1) and d1 = fanins.(2) in
              cc0.(s) <-
                cap (1 + min (cc0.(sel) + cc0.(d0)) (cc1.(sel) + cc0.(d1)));
              cc1.(s) <-
                cap (1 + min (cc0.(sel) + cc1.(d0)) (cc1.(sel) + cc1.(d1)))))
    c.Circuit.topo;
  (cc0, cc1)

(* Controllability depends only on the view's shape — the circuit and
   which signals are inside / free — not on frames or pins, so it is
   cached across [solve] calls. BMC deepening and repeated
   concretisation queries hit the same whole-design view dozens of
   times per run; growing abstractions correctly miss. The cache is a
   small MRU list so at most [scoap_cache_max] circuits are retained. *)
let scoap_cache_max = 8

let scoap_cache : (Sview.t * (int array * int array)) list ref = ref []

let same_shape (a : Sview.t) (b : Sview.t) =
  a.Sview.circuit == b.Sview.circuit
  && Bitset.equal a.Sview.inside b.Sview.inside
  && Bitset.equal a.Sview.free b.Sview.free

let controllability_cached view =
  match List.partition (fun (v, _) -> same_shape v view) !scoap_cache with
  | (_, cc) :: _, others ->
    Telemetry.incr c_scoap_hits;
    scoap_cache := (view, cc) :: others;
    cc
  | [], others ->
    Telemetry.incr c_scoap_misses;
    let cc = controllability view in
    let others =
      if List.length others >= scoap_cache_max then
        List.filteri (fun i _ -> i < scoap_cache_max - 1) others
      else others
    in
    scoap_cache := (view, cc) :: others;
    cc

let cell_of sol f s = (f * sol.nsig) + s
let frame_of sol cell = cell / sol.nsig
let sig_of sol cell = cell mod sol.nsig
let get sol f s = Bytes.get sol.values (cell_of sol f s)

let is_free_cell sol f s =
  Sview.is_free sol.view s
  ||
  match Circuit.node sol.view.Sview.circuit s with
  | Circuit.Reg { init; _ } when f = 0 && not (Sview.is_free sol.view s) ->
    sol.free_init || init = `Free
  | _ -> false

(* 3-valued evaluation of a derived (non-free) cell from the current
   values of its fanin cells. *)
let eval_cell sol f s =
  let tv s' =
    match get sol f s' with
    | c when c = v0 -> Rfn_sim3v.Sim3v.V0
    | c when c = v1 -> Rfn_sim3v.Sim3v.V1
    | _ -> Rfn_sim3v.Sim3v.VX
  in
  match Circuit.node sol.view.Sview.circuit s with
  | Circuit.Const b -> of_bool b
  | Circuit.Gate (kind, fanins) -> (
    match Rfn_sim3v.Sim3v.eval_gate kind tv fanins with
    | Rfn_sim3v.Sim3v.V0 -> v0
    | Rfn_sim3v.Sim3v.V1 -> v1
    | Rfn_sim3v.Sim3v.VX -> vx)
  | Circuit.Reg { init; next } ->
    if f > 0 then get sol (f - 1) next
    else if sol.free_init then vx
    else ( match init with `Zero -> v0 | `One -> v1 | `Free -> vx)
  | Circuit.Input -> assert false (* inputs are free in well-formed views *)

let push_trail sol cell =
  if sol.trail_n >= Array.length sol.trail then begin
    let bigger = Array.make (2 * Array.length sol.trail) 0 in
    Array.blit sol.trail 0 bigger 0 sol.trail_n;
    sol.trail <- bigger
  end;
  sol.trail.(sol.trail_n) <- cell;
  sol.trail_n <- sol.trail_n + 1

let set_cell sol cell v =
  Bytes.set sol.values cell v;
  push_trail sol cell

(* Event-driven forward propagation: re-evaluate the readers of every
   newly concrete cell. Values move X -> concrete only, so evaluation
   order cannot change the fixpoint. *)
let propagate sol seeds =
  let c = sol.view.Sview.circuit in
  let stack = ref seeds in
  let rec go () =
    match !stack with
    | [] -> ()
    | cell :: rest ->
      stack := rest;
      let f = frame_of sol cell and s = sig_of sol cell in
      Array.iter
        (fun reader ->
          if Sview.mem sol.view reader && not (Sview.is_free sol.view reader)
          then
            match Circuit.node c reader with
            | Circuit.Gate _ ->
              let rc = cell_of sol f reader in
              if Bytes.get sol.values rc = vx then begin
                let v = eval_cell sol f reader in
                if v <> vx then begin
                  set_cell sol rc v;
                  stack := rc :: !stack
                end
              end
            | Circuit.Reg _ when f + 1 < sol.k ->
              let rc = cell_of sol (f + 1) reader in
              if Bytes.get sol.values rc = vx then begin
                set_cell sol rc (Bytes.get sol.values cell);
                stack := rc :: !stack
              end
            | _ -> ())
        c.Circuit.fanouts.(s);
      go ()
  in
  go ()

(* Objective scan: first still-unknown objective, or a conflict. *)
type obj_status = All_sat | Pending of int * bool | Conflict

let check_objectives sol =
  let rec scan pending = function
    | [] -> (
      match pending with Some (c, v) -> Pending (c, v) | None -> All_sat)
    | (cell, v) :: rest ->
      let cur = Bytes.get sol.values cell in
      if cur = vx then
        scan (if pending = None then Some (cell, v) else pending) rest
      else if cur = of_bool v then scan pending rest
      else Conflict
  in
  scan None sol.objectives

(* Objective backtracing: follow an X-path from an unjustified
   requirement down to an unassigned free variable, choosing fanins by
   smallest combinational depth. *)
let rec backtrace sol f s v =
  if is_free_cell sol f s then (f, s, v)
  else
    let c = sol.view.Sview.circuit in
    match Circuit.node c s with
    | Circuit.Reg { next; _ } ->
      (* f = 0 with a concrete init would be a concrete cell, caught by
         the objective scan before backtracing. *)
      assert (f > 0);
      backtrace sol (f - 1) next v
    | Circuit.Const _ -> assert false
    | Circuit.Input -> assert false
    | Circuit.Gate (kind, fanins) -> (
      let value i = get sol f fanins.(i) in
      let pick_x desired =
        (* X-valued fanin that is cheapest to drive to the desired
           value, by the SCOAP controllability estimate. *)
        let cost fi = if desired then sol.cc1.(fi) else sol.cc0.(fi) in
        let best = ref (-1) in
        Array.iteri
          (fun i fi ->
            if value i = vx then
              match !best with
              | -1 -> best := i
              | b -> if cost fi < cost fanins.(b) then best := i)
          fanins;
        assert (!best >= 0);
        ignore c;
        backtrace sol f fanins.(!best) desired
      in
      match kind with
      | Gate.Not -> backtrace sol f fanins.(0) (not v)
      | Gate.Buf -> backtrace sol f fanins.(0) v
      | Gate.And -> pick_x v
      | Gate.Nand -> pick_x (not v)
      | Gate.Or -> pick_x v
      | Gate.Nor -> pick_x (not v)
      | Gate.Xor | Gate.Xnor ->
        (* Aim the first X fanin assuming the remaining X fanins end up
           0; later backtraces correct course as values concretize. *)
        let target = if kind = Gate.Xor then v else not v in
        let parity = ref false in
        Array.iteri
          (fun i _ -> if value i = v1 then parity := not !parity)
          fanins;
        pick_x (target <> !parity)
      | Gate.Mux ->
        let sel = value 0 and d0 = value 1 and d1 = value 2 in
        if sel = v0 then backtrace sol f fanins.(1) v
        else if sel = v1 then backtrace sol f fanins.(2) v
        else if d0 = of_bool v then backtrace sol f fanins.(0) false
        else if d1 = of_bool v then backtrace sol f fanins.(0) true
        else if d0 = vx then backtrace sol f fanins.(0) false
        else backtrace sol f fanins.(0) true)

let undo_to sol mark =
  while sol.trail_n > mark do
    sol.trail_n <- sol.trail_n - 1;
    Bytes.set sol.values sol.trail.(sol.trail_n) vx
  done

let extract_trace sol =
  let states =
    Array.init sol.k (fun f ->
        Cube.of_list
          (Array.to_list sol.view.Sview.regs
          |> List.filter_map (fun r ->
                 match get sol f r with
                 | c when c = v0 -> Some (r, false)
                 | c when c = v1 -> Some (r, true)
                 | _ -> None)))
  in
  let inputs =
    Array.init sol.k (fun f ->
        Cube.of_list
          (Array.to_list sol.view.Sview.free_inputs
          |> List.filter_map (fun s ->
                 match get sol f s with
                 | c when c = v0 -> Some (s, false)
                 | c when c = v1 -> Some (s, true)
                 | _ -> None)))
  in
  Trace.make ~states ~inputs

exception Stop of answer

let time_exceeded sol =
  match sol.limits.max_seconds with
  | None -> false
  | Some budget -> Telemetry.now () -. sol.started > budget

(* Chronological backtracking: flip the deepest unflipped decision,
   discarding fully-explored ones. *)
let backtrack sol =
  let rec pop () =
    match sol.decisions_stack with
    | [] -> raise (Stop Unsat)
    | d :: rest ->
      undo_to sol d.mark;
      if d.tried_both then begin
        sol.decisions_stack <- rest;
        pop ()
      end
      else begin
        d.tried_both <- true;
        d.value <- not d.value;
        sol.n_backtracks <- sol.n_backtracks + 1;
        if sol.n_backtracks > sol.limits.max_backtracks then
          raise (Stop (Abort Rfn_failure.Backtracks));
        if time_exceeded sol then raise (Stop (Abort Rfn_failure.Time));
        set_cell sol d.cell (of_bool d.value);
        propagate sol [ d.cell ]
      end
  in
  pop ()

let search sol =
  try
    let rec loop () =
      match check_objectives sol with
      | Conflict ->
        backtrack sol;
        loop ()
      | All_sat -> Sat (extract_trace sol)
      | Pending (cell, v) ->
        let f = frame_of sol cell and s = sig_of sol cell in
        let fd, sd, vd = backtrace sol f s v in
        let dcell = cell_of sol fd sd in
        assert (Bytes.get sol.values dcell = vx);
        let d =
          { cell = dcell; value = vd; tried_both = false; mark = sol.trail_n }
        in
        sol.decisions_stack <- d :: sol.decisions_stack;
        sol.n_decisions <- sol.n_decisions + 1;
        if time_exceeded sol then raise (Stop (Abort Rfn_failure.Time));
        set_cell sol dcell (of_bool vd);
        propagate sol [ dcell ];
        loop ()
    in
    loop ()
  with Stop a -> a

let solve ?(free_init = false) ?(limits = default_limits) view ~frames ~pins
    () =
  if frames < 1 then invalid_arg "Atpg.solve: frames < 1";
  let c = view.Sview.circuit in
  let nsig = Circuit.num_signals c in
  let cc0, cc1 = controllability_cached view in
  let sol =
    {
      view;
      k = frames;
      nsig;
      values = Bytes.make (frames * nsig) vx;
      trail = Array.make 1024 0;
      trail_n = 0;
      decisions_stack = [];
      objectives = [];
      n_decisions = 0;
      n_backtracks = 0;
      limits;
      started = Telemetry.now ();
      free_init;
      cc0;
      cc1;
    }
  in
  (* Base pass: concrete constants and initial values propagate through
     each frame in topological order (frame-ascending handles the
     cross-frame register reads). *)
  for f = 0 to frames - 1 do
    Array.iter
      (fun s ->
        if Sview.mem view s && not (Sview.is_free view s) then
          Bytes.set sol.values (cell_of sol f s) (eval_cell sol f s))
      c.Circuit.topo
  done;
  (* Pins: free cells become root assignments, derived cells become
     objectives. *)
  let contradiction = ref false in
  let seeds = ref [] in
  List.iter
    (fun (f, s, v) ->
      if f < 0 || f >= frames then invalid_arg "Atpg.solve: frame out of range";
      if not (Sview.mem view s) then
        invalid_arg "Atpg.solve: pinned signal outside the view";
      let cell = cell_of sol f s in
      if is_free_cell sol f s then begin
        match Bytes.get sol.values cell with
        | cv when cv = vx ->
          set_cell sol cell (of_bool v);
          seeds := cell :: !seeds
        | cv -> if cv <> of_bool v then contradiction := true
      end
      else sol.objectives <- (cell, v) :: sol.objectives)
    pins;
  (* Justify objectives frame-ascending: earlier cycles first. *)
  sol.objectives <-
    List.sort (fun (c1, _) (c2, _) -> compare c1 c2) sol.objectives;
  let answer =
    if !contradiction then Unsat
    else begin
      propagate sol !seeds;
      search sol
    end
  in
  Telemetry.incr c_solves;
  Telemetry.add c_decisions sol.n_decisions;
  Telemetry.add c_backtracks sol.n_backtracks;
  (match answer with Abort _ -> Telemetry.incr c_aborts | _ -> ());
  (answer, { decisions = sol.n_decisions; backtracks = sol.n_backtracks })
