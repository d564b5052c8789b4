module Bdd = Rfn_bdd.Bdd
module Telemetry = Rfn_obs.Telemetry

let c_steps = Telemetry.counter "mc.fixpoint_steps"
let g_frontier = Telemetry.gauge "mc.frontier_size"
let g_reached = Telemetry.gauge "mc.reached_size"

type outcome =
  | Proved
  | Reached of int
  | Closed of int
  | Aborted of Rfn_failure.resource

type result = {
  outcome : outcome;
  rings : Bdd.t array;
  reached : Bdd.t;
  steps : int;
  seconds : float;
}

let bad_predicate vm ~fn ~bad =
  let man = Varmap.man vm in
  Bdd.exists man (Varmap.inp_vars vm) (fn bad)

let run ?(max_steps = max_int) ?max_seconds ?(stop_at_bad = true) img ~vm ~init
    ~bad_states =
  let man = Varmap.man vm in
  let started = Telemetry.now () in
  let elapsed () = Telemetry.now () -. started in
  let over_time () =
    match max_seconds with Some b -> elapsed () > b | None -> false
  in
  let rings = ref [ init ] in
  let first_hit = ref None in
  let touches set = not (Bdd.is_zero (Bdd.dand man set bad_states)) in
  let finish outcome steps reached =
    {
      outcome;
      rings = Array.of_list (List.rev !rings);
      reached;
      steps;
      seconds = elapsed ();
    }
  in
  if touches init && stop_at_bad then finish (Reached 0) 0 init
  else begin
    if touches init then first_hit := Some 0;
    let closed steps reached =
      match !first_hit with
      | Some k -> finish (Closed k) steps reached
      | None -> finish Proved steps reached
    in
    let rec loop step reached frontier =
      if step >= max_steps then finish (Aborted Rfn_failure.Steps) step reached
      else if over_time () then finish (Aborted Rfn_failure.Time) step reached
      else begin
        (* Collect dead intermediates before each image once the store
           is three-quarters full; protected structures (transition
           clusters, cone tables) survive automatically. *)
        if
          Bdd.node_limit man < max_int
          && 4 * Bdd.num_nodes man > 3 * Bdd.node_limit man
        then Bdd.gc man ~roots:(reached :: bad_states :: !rings);
        match Bdd.diff man (Image.post img frontier) reached with
        | exception Bdd.Limit_exceeded ->
          finish (Aborted Rfn_failure.Nodes) step reached
        | fresh ->
          Telemetry.incr c_steps;
          if Bdd.is_zero fresh then closed step reached
          else begin
            rings := fresh :: !rings;
            let reached = Bdd.dor man reached fresh in
            (* BDD sizing is O(nodes): only when telemetry is recording *)
            if Telemetry.enabled () then begin
              Telemetry.record g_frontier (Bdd.size man fresh);
              Telemetry.record g_reached (Bdd.size man reached)
            end;
            if touches fresh && !first_hit = None then begin
              first_hit := Some (step + 1);
              if stop_at_bad then
                finish (Reached (step + 1)) (step + 1) reached
              else loop (step + 1) reached fresh
            end
            else loop (step + 1) reached fresh
          end
      end
    in
    loop 0 init init
  end
