open Rfn_circuit
module Bdd = Rfn_bdd.Bdd
module Varmap = Rfn_mc.Varmap
module Symbolic = Rfn_mc.Symbolic
module Image = Rfn_mc.Image
module Telemetry = Rfn_obs.Telemetry

let c_cones_reused = Telemetry.counter "session.cones_reused"
let c_cones_recompiled = Telemetry.counter "session.cones_recompiled"
let c_clusters_reused = Telemetry.counter "session.clusters_reused"
let c_clusters_rebuilt = Telemetry.counter "session.clusters_rebuilt"
let c_grow_in_place = Telemetry.counter "session.grow_in_place"
let c_resets = Telemetry.counter "session.resets"
let c_retargets = Telemetry.counter "session.retargets"
let g_nodes_carried = Telemetry.gauge "session.nodes_carried"

type policy = { reuse : bool }

let default_policy = { reuse = true }

type prepared = {
  vm : Varmap.t;
  fn : int -> Bdd.t;
  img : Image.t;
}

type t = {
  policy : policy;
  mutable node_limit : int;
  mutable abstraction : Abstraction.t;
  mutable vm : Varmap.t option;
  mutable memo : (int, Bdd.t) Hashtbl.t;
  cache : Image.cache;
  mutable prepared : prepared option;
  mutable grew : bool;  (* an in-place grow since the last prepare *)
}

let create ?(node_limit = max_int) ?(policy = default_policy) circuit ~roots =
  {
    policy;
    node_limit;
    abstraction = Abstraction.initial circuit ~roots;
    vm = None;
    memo = Hashtbl.create 997;
    cache = Image.cache ();
    prepared = None;
    grew = false;
  }

let abstraction t = t.abstraction
let circuit t = t.abstraction.Abstraction.circuit
let policy t = t.policy
let varmap t = t.vm
let cone_signals t = Hashtbl.fold (fun s _ acc -> s :: acc) t.memo []

(* Drop every per-manager structure. The old manager (if any) is
   released wholesale, so nothing needs unprotecting. *)
let forget_manager t =
  t.vm <- None;
  t.memo <- Hashtbl.create 997;
  Image.clear_cache t.cache;
  t.prepared <- None;
  t.grew <- false

let reset ?node_limit t =
  Telemetry.incr c_resets;
  (* a reset is a resource cliff (the manager is dropped wholesale) —
     snapshot memory and engine gauges on both sides of it *)
  Rfn_obs.Sampler.tick "session.reset";
  (match node_limit with Some l -> t.node_limit <- l | None -> ());
  forget_manager t

(* Point the session at a different property of the same circuit: the
   abstraction restarts from the new roots' initial view and the
   manager is dropped, so a retargeted run is bit-identical to a cold
   one. *)
let retarget ?node_limit t ~roots =
  Telemetry.incr c_retargets;
  (match node_limit with Some l -> t.node_limit <- l | None -> ());
  t.abstraction <- Abstraction.initial (circuit t) ~roots;
  forget_manager t

let refine t ~add =
  let abstraction, delta = Abstraction.refine_delta t.abstraction ~add in
  t.abstraction <- abstraction;
  let view = abstraction.Abstraction.view in
  (match t.vm with
  | None -> () (* next prepare builds from scratch anyway *)
  | Some vm when t.policy.reuse ->
    t.vm <- Some (Varmap.grow vm ~view delta);
    t.grew <- true
  | Some vm ->
    (* From-scratch reference mode: a fresh manager, but the replica
       keeps the exact variable assignment, so growth allocates the
       same indices the in-place path would — behaviour stays
       bit-identical while nothing is reused. *)
    t.vm <- Some (Varmap.grow (Varmap.replica vm) ~view delta);
    t.memo <- Hashtbl.create 997;
    Image.clear_cache t.cache);
  t.prepared <- None;
  delta

(* Compile the missing cones and (re)cluster the relation over the
   current manager; returns the prepared triple. *)
let compile t vm =
  let view = t.abstraction.Abstraction.view in
  let compiled = Symbolic.compile_view vm view ~memo:t.memo in
  let in_view = Bitset.cardinal view.Sview.inside in
  Telemetry.add c_cones_recompiled compiled;
  Telemetry.add c_cones_reused (in_view - compiled);
  let fn s =
    match Hashtbl.find_opt t.memo s with
    | Some f -> f
    | None -> invalid_arg "Session: signal outside the view"
  in
  let img, stats = Image.build ~fn ~cache:t.cache vm in
  Telemetry.add c_clusters_reused stats.Image.clusters_reused;
  Telemetry.add c_clusters_rebuilt stats.Image.clusters_rebuilt;
  { vm; fn; img }

let prepare t =
  match t.prepared with
  | Some p -> p
  | None ->
    let p =
      match t.vm with
      | None ->
        let view = t.abstraction.Abstraction.view in
        let vm = Varmap.make ~node_limit:t.node_limit view in
        t.vm <- Some vm;
        compile t vm
      | Some vm when not t.grew -> compile t vm
      | Some vm ->
        (* In-place growth happened: collect the previous iteration's
           garbage (the protected memo and clusters survive) and
           measure what is carried. *)
        let man = Varmap.man vm in
        Bdd.gc man ~roots:[];
        Telemetry.record g_nodes_carried (Bdd.num_nodes man);
        let p = compile t vm in
        Telemetry.incr c_grow_in_place;
        p
    in
    t.grew <- false;
    t.prepared <- Some p;
    p
