module Telemetry = Rfn_obs.Telemetry

let src = Logs.Src.create "serve.pool" ~doc:"parsed-design LRU cache"

module Log = (val Logs.src_log src : Logs.LOG)

let c_parsed = Telemetry.counter "serve.designs_parsed"
let c_reused = Telemetry.counter "serve.designs_reused"
let c_evicted = Telemetry.counter "serve.designs_evicted"

(* Most-recently used first; digests are unique. *)
type t = {
  max_designs : int;
  mutable entries : (string * Rfn_circuit.Circuit.t) list;
}

let create ?(max_designs = 4) () =
  { max_designs = max 1 max_designs; entries = [] }

let drop t ~digest =
  if List.mem_assoc digest t.entries then begin
    Telemetry.incr c_evicted;
    Log.info (fun m -> m "evicting design %s" digest);
    t.entries <- List.remove_assoc digest t.entries
  end

let acquire t ~digest ~parse =
  match List.assoc_opt digest t.entries with
  | Some d ->
    Telemetry.incr c_reused;
    t.entries <- (digest, d) :: List.remove_assoc digest t.entries;
    d
  | None ->
    let d = parse () in
    Telemetry.incr c_parsed;
    t.entries <- (digest, d) :: t.entries;
    (* one entry in, at most one out: the LRU sits at [max_designs] *)
    if List.length t.entries > t.max_designs then
      drop t ~digest:(fst (List.nth t.entries t.max_designs));
    d

let digests t = List.map fst t.entries
