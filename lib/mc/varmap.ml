open Rfn_circuit
module Bdd = Rfn_bdd.Bdd
module Force = Rfn_bdd.Force

type role = Cur of int | Nxt of int | Inp of int

type t = {
  man : Bdd.man;
  view : Sview.t;
  cur : (int, int) Hashtbl.t;
  nxt : (int, int) Hashtbl.t;
  inp : (int, int) Hashtbl.t;
  roles : (int, role) Hashtbl.t;
  initial_inp : int list;
}

(* FORCE order over the view's signals: one hyperedge per gate (the
   gate with its fanins) and one per register (the register with its
   next-state input), then keep only the variable-bearing signals. *)
let ordered_var_signals view =
  let c = view.Sview.circuit in
  let n = Circuit.num_signals c in
  let idx_of = Array.make n (-1) in
  let count = ref 0 in
  Bitset.iter
    (fun s ->
      idx_of.(s) <- !count;
      incr count)
    view.Sview.inside;
  let edges = ref [] in
  Bitset.iter
    (fun s ->
      if not (Sview.is_free view s) then
        match Circuit.node c s with
        | Circuit.Gate (_, fanins) ->
          let e =
            idx_of.(s)
            :: (Array.to_list fanins
               |> List.filter_map (fun f ->
                      if idx_of.(f) >= 0 then Some idx_of.(f) else None))
          in
          edges := e :: !edges
        | Circuit.Reg { next; _ } when idx_of.(next) >= 0 ->
          edges := [ idx_of.(s); idx_of.(next) ] :: !edges
        | _ -> ())
    view.Sview.inside;
  let pos = Force.order ~nvars:!count ~edges:!edges () in
  let var_signals =
    Array.to_list view.Sview.regs @ Array.to_list view.Sview.free_inputs
  in
  List.sort (fun a b -> compare pos.(idx_of.(a)) pos.(idx_of.(b))) var_signals

let make ?(node_limit = max_int) view =
  let signals = ordered_var_signals view in
  let nvars =
    List.fold_left
      (fun acc s -> acc + if Circuit.is_reg view.Sview.circuit s
                             && not (Sview.is_free view s) then 2 else 1)
      0 signals
  in
  let man = Bdd.create ~node_limit ~nvars () in
  let cur = Hashtbl.create 97
  and nxt = Hashtbl.create 97
  and inp = Hashtbl.create 97
  and roles = Hashtbl.create 197 in
  let level = ref 0 in
  let initial_inp = ref [] in
  List.iter
    (fun s ->
      if Circuit.is_reg view.Sview.circuit s && not (Sview.is_free view s)
      then begin
        Hashtbl.replace cur s !level;
        Hashtbl.replace roles !level (Cur s);
        Hashtbl.replace nxt s (!level + 1);
        Hashtbl.replace roles (!level + 1) (Nxt s);
        level := !level + 2
      end
      else begin
        Hashtbl.replace inp s !level;
        Hashtbl.replace roles !level (Inp s);
        initial_inp := !level :: !initial_inp;
        incr level
      end)
    signals;
  { man; view; cur; nxt; inp; roles; initial_inp = List.rev !initial_inp }

(* In-place growth for a refinement delta: carried signals keep their
   variables (a promoted pseudo-input's [Inp] variable is re-rolled as
   its [Cur] variable — the reason downstream cone BDDs survive
   growth), new variables are appended at the bottom of the order. *)
let grow t ~view (d : Abstraction.delta) =
  let initial_inp = ref t.initial_inp in
  let drop_inp s =
    match Hashtbl.find_opt t.inp s with
    | None -> None
    | Some v ->
      Hashtbl.remove t.inp s;
      initial_inp := List.filter (fun x -> x <> v) !initial_inp;
      Some v
  in
  let add_fresh_reg r =
    (* a stale [Inp] binding (a min-cut cut variable from an earlier
       hybrid extraction) must not shadow the register's state role *)
    (match drop_inp r with
    | Some v -> Hashtbl.remove t.roles v
    | None -> ());
    let v = Bdd.add_vars t.man 2 in
    Hashtbl.replace t.cur r v;
    Hashtbl.replace t.roles v (Cur r);
    Hashtbl.replace t.nxt r (v + 1);
    Hashtbl.replace t.roles (v + 1) (Nxt r)
  in
  List.iter
    (fun p ->
      match drop_inp p with
      | Some v ->
        Hashtbl.replace t.cur p v;
        Hashtbl.replace t.roles v (Cur p);
        let nv = Bdd.add_vars t.man 1 in
        Hashtbl.replace t.nxt p nv;
        Hashtbl.replace t.roles nv (Nxt p)
      | None -> add_fresh_reg p)
    d.Abstraction.promoted;
  List.iter add_fresh_reg d.Abstraction.fresh_regs;
  (* Collect the appended input variables in reverse and splice them in
     with one [List.rev] — appending to [initial_inp] one element at a
     time inside the iteration is quadratic in the input count. *)
  let appended_inp = ref [] in
  List.iter
    (fun s ->
      let v =
        match Hashtbl.find_opt t.inp s with
        | Some v -> v
        | None ->
          let v = Bdd.add_vars t.man 1 in
          Hashtbl.replace t.inp s v;
          Hashtbl.replace t.roles v (Inp s);
          v
      in
      appended_inp := v :: !appended_inp)
    d.Abstraction.new_free_inputs;
  { t with view; initial_inp = !initial_inp @ List.rev !appended_inp }

let replica ?node_limit t =
  let node_limit =
    match node_limit with Some l -> l | None -> Bdd.node_limit t.man
  in
  let man = Bdd.create ~node_limit ~nvars:(Bdd.nvars t.man) () in
  {
    t with
    man;
    cur = Hashtbl.copy t.cur;
    nxt = Hashtbl.copy t.nxt;
    inp = Hashtbl.copy t.inp;
    roles = Hashtbl.copy t.roles;
  }

let remap t ~man ~map =
  let tr tbl =
    let tbl' = Hashtbl.create (Hashtbl.length tbl) in
    Hashtbl.iter (fun s v -> Hashtbl.replace tbl' s (map v)) tbl;
    tbl'
  in
  let roles = Hashtbl.create (Hashtbl.length t.roles) in
  Hashtbl.iter (fun v r -> Hashtbl.replace roles (map v) r) t.roles;
  {
    t with
    man;
    cur = tr t.cur;
    nxt = tr t.nxt;
    inp = tr t.inp;
    roles;
    initial_inp = List.map map t.initial_inp;
  }

let man t = t.man
let view t = t.view

(* A miss here is a caller bug (asking for a role the signal does not
   carry), so the error names the accessor, the signal and its role —
   a bare [Not_found] escaping from deep inside the fixpoint engine is
   undebuggable. *)
let find_var what tbl t s =
  match Hashtbl.find_opt tbl s with
  | Some v -> v
  | None ->
    invalid_arg
      (Printf.sprintf "Varmap.%s: signal %d (%s) has no such variable" what s
         (Circuit.name t.view.Sview.circuit s))

let cur_var t s = find_var "cur_var" t.cur t s
let nxt_var t s = find_var "nxt_var" t.nxt t s
let inp_var t s = find_var "inp_var" t.inp t s
let cur_var_opt t s = Hashtbl.find_opt t.cur s
let nxt_var_opt t s = Hashtbl.find_opt t.nxt s
let inp_var_opt t s = Hashtbl.find_opt t.inp s
let has_inp_var t s = Hashtbl.mem t.inp s

let role t v =
  match Hashtbl.find_opt t.roles v with
  | Some r -> r
  | None ->
    invalid_arg
      (Printf.sprintf "Varmap.role: BDD variable %d has no allocated role" v)

let vars_of tbl = Hashtbl.fold (fun _ v acc -> v :: acc) tbl []

let cur_vars t = List.sort compare (vars_of t.cur)
let inp_vars t = t.initial_inp

let add_input_vars t signals =
  let fresh = List.filter (fun s -> not (Hashtbl.mem t.inp s)) signals in
  match fresh with
  | [] -> ()
  | _ ->
    let first = Bdd.add_vars t.man (List.length fresh) in
    List.iteri
      (fun i s ->
        Hashtbl.replace t.inp s (first + i);
        Hashtbl.replace t.roles (first + i) (Inp s))
      fresh

let rename_next_to_cur t f =
  Bdd.rename t.man
    (fun v ->
      match Hashtbl.find_opt t.roles v with
      | Some (Nxt s) -> cur_var t s
      | _ -> v)
    f

let cube_of_bdd_cube t literals =
  List.map
    (fun (v, b) ->
      match role t v with
      | Cur s | Inp s -> (s, b)
      | Nxt _ ->
        invalid_arg "Varmap.cube_of_bdd_cube: next-state variable in cube")
    literals
