(* Table 1 benchmark: the paper's full-size processor and FIFO designs,
   verified through the public layer APIs.

   main.exe run --workload W --seed N --seconds S --trace 0|1 [--work DIR]
   main.exe selftest

   Untraced (--trace 0): set up several times (parse the netlist text and
   compute each property's cone of influence), then run the workload
   until the time budget is spent and print the end-to-end metrics as
   medians over repeated runs.

   Traced (--trace 1): one untraced reference round, then the same
   properties again with every layer call wrapped in a span. On the cold
   workloads the benchmark drives the CEGAR loop itself from the public
   functions and checks that the replay reproduces the reference run's
   verdicts, iteration counts and promoted registers; on serve_warm the
   span goes around [Server.run] and per-job figures come from the
   result lines. Prints the per-layer metrics.

   The last line of standard output is always one JSON object:
   {"correct":_,"attempted":_,"failed":_,"metrics":{...}}. Everything
   else goes to standard error. See NOTES.md. *)

open Rfn_circuit
module Rfn = Rfn_core.Rfn
module Session = Rfn_core.Session
module Supervisor = Rfn_core.Supervisor
module Hybrid = Rfn_core.Hybrid
module Concretize = Rfn_core.Concretize
module Refine = Rfn_core.Refine
module Reach = Rfn_mc.Reach
module Symbolic = Rfn_mc.Symbolic
module Bdd = Rfn_bdd.Bdd
module Telemetry = Rfn_obs.Telemetry
module Json = Rfn_obs.Json
module Provenance = Rfn_obs.Provenance
module Server = Rfn_serve.Server
module Protocol = Rfn_serve.Protocol
module Codec = Rfn_proc.Codec

let now = Unix.gettimeofday
let log fmt = Printf.kfprintf (fun oc -> output_char oc '\n'; flush oc) stderr fmt

(* Process user+sys seconds; [Sys.time] reads getrusage, to the
   microsecond. *)
let cpu = Sys.time

(* ---- environment pinning -------------------------------------------- *)

(* Each of these changes the program being measured (engine choice,
   racing worker processes, invariant checks, injected faults). *)
let pinned_names =
  [ "RFN_ENGINE"; "RFN_RACE"; "RFN_NO_FORK"; "RFN_CHECK"; "RFN_INJECT_FAULTS" ]

let is_pinned name =
  List.mem name pinned_names || String.starts_with ~prefix:"RFN_PROC_" name

let pin_environment () =
  let set =
    Array.to_list (Unix.environment ())
    |> List.filter_map (fun kv ->
           match String.index_opt kv '=' with
           | Some i when is_pinned (String.sub kv 0 i) -> Some kv
           | _ -> None)
  in
  List.iter
    (fun (label, prefix) ->
      if not (List.exists (String.starts_with ~prefix) set) then log "env: %s unset" label)
    (List.map (fun n -> (n, n ^ "=")) pinned_names @ [ ("RFN_PROC_*", "RFN_PROC_") ]);
  if set <> [] then begin
    List.iter (fun kv -> log "env: %s is set; refusing to run" kv) set;
    exit 2
  end

(* ---- designs and expectations ---------------------------------------- *)

type design = Processor | Fifo

let design_name = function Processor -> "processor" | Fifo -> "fifo"

let netlist_text = function
  | Processor ->
    Bench_io.to_string (Rfn_designs.Processor.make ()).Rfn_designs.Processor.circuit
  | Fifo -> Bench_io.to_string (Rfn_designs.Fifo.make ()).Rfn_designs.Fifo.circuit

(* Expected verdicts: paper Table 1, plus one FIFO reachability target
   ([full_flag]: the FIFO can fill) so every workload has a False
   property. [Fails n] is an n-cycle counterexample. *)
type expect = Holds | Fails of int

type job = { design : design; prop : string; analyze : bool }

let table1 = function
  | "mutex" | "psh_hf" | "psh_af" | "psh_full" -> Some Holds
  | "error_flag" -> Some (Fails 30)
  | "full_flag" -> Some (Fails 16)
  | _ -> None

let job ?(analyze = false) design prop = { design; prop; analyze }

let workload_jobs = function
  | "proc_cold" -> Some [ job Processor "mutex"; job Processor "error_flag" ]
  | "fifo_cold" ->
    Some
      [ job Fifo "psh_hf"; job Fifo "psh_af"; job Fifo "psh_full";
        job Fifo "full_flag" ]
  | "serve_warm" ->
    Some
      [ job ~analyze:true Fifo "psh_hf"; job ~analyze:true Fifo "psh_af";
        job ~analyze:true Fifo "psh_full"; job Processor "mutex";
        job Processor "error_flag" ]
  | _ -> None

let property circuit name =
  match Property.of_output_opt circuit name with
  | Some p -> p
  | None -> Property.make ~name ~bad:(Circuit.find circuit name)

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Every verdict is compared with its expectation; every counterexample
   is replayed on the concrete design with [Sim3v.replay_concrete],
   outside the verifier's own validation. *)
type verdict = Proved | Falsified of Trace.t | Aborted of string

let check ~expect circuit prop verdict =
  match (expect, verdict) with
  | None, _ -> Error "no expected verdict"
  | Some Holds, Proved -> Ok ()
  | Some (Fails n), Falsified t ->
    let cycles = Trace.length t - 1 in
    if not (Rfn_sim3v.Sim3v.replay_concrete circuit t ~bad:prop.Property.bad) then
      Error "counterexample fails independent replay"
    else if cycles <> n then
      Error (Printf.sprintf "%d-cycle counterexample, expected %d" cycles n)
    else Ok ()
  | Some Holds, Falsified _ -> Error "falsified, expected to hold"
  | Some (Fails _), Proved -> Error "proved, expected a counterexample"
  | Some _, Aborted why -> Error ("aborted: " ^ why)

let verdict_of_outcome = function
  | Rfn.Proved -> Proved
  | Rfn.Falsified t -> Falsified t
  | Rfn.Aborted f -> Aborted (Rfn_failure.to_string f)

(* ---- statistics ------------------------------------------------------- *)

let sum = List.fold_left ( +. ) 0.0

let median = function
  | [] -> 0.0
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile of a sorted array. *)
let percentile a p =
  let n = Array.length a in
  let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
  a.(max 0 (min (n - 1) (rank - 1)))

(* Call latency of a span: median, and the highest whole percentile that
   still has at least 10 samples beyond it (0 when there are too few
   samples for any). *)
let latency durations =
  let a = Array.of_list durations in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then (0.0, 0.0, 0, 0)
  else
    let p50 = percentile a 50.0 in
    let pct = if n > 10 then 100 * (n - 10) / n else 0 in
    let tail = if pct > 0 then percentile a (float_of_int pct) else 0.0 in
    (p50, tail, pct, n)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | exception End_of_file -> 0.0
    | l when String.starts_with ~prefix:"VmHWM:" l ->
      Scanf.sscanf l "VmHWM: %f kB" (fun kb -> kb /. 1024.0)
    | _ -> scan ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* ---- spans ------------------------------------------------------------ *)

(* In-memory span store for the traced run: name, start, end, parent and
   property id, plus the GC words allocated inside the span. Written to
   a JSONL file at the end. *)
type span = {
  id : int;
  name : string;
  parent : int;
  prop : string;
  t0 : float;
  mutable t1 : float;
  mutable minor : float;  (** minor-heap words allocated inside *)
  mutable major : float;  (** words allocated directly in the major heap *)
  mutable collections : int;  (** major collections completed inside *)
}

let tracing = ref false
let spans : span list ref = ref []
let open_spans : span list ref = ref []
let current_prop = ref ""

(* [Gc.minor_words] reads the allocation pointer, so it is exact between
   minor collections; the other counters move at collections only. *)
let gc_words () =
  let _, promoted, major = Gc.counters () in
  (Gc.minor_words (), major -. promoted)

let major_collections () = (Gc.quick_stat ()).Gc.major_collections

let span name f =
  if not !tracing then f ()
  else begin
    let parent = match !open_spans with [] -> -1 | s :: _ -> s.id in
    let coll0 = major_collections () in
    let minor0, major0 = gc_words () in
    let s =
      { id = List.length !spans; name; parent; prop = !current_prop;
        t0 = now (); t1 = 0.0; minor = 0.0; major = 0.0; collections = 0 }
    in
    spans := s :: !spans;
    open_spans := s :: !open_spans;
    Fun.protect
      ~finally:(fun () ->
        s.t1 <- now ();
        let minor1, major1 = gc_words () in
        s.minor <- minor1 -. minor0;
        s.major <- major1 -. major0;
        s.collections <- major_collections () - coll0;
        open_spans := List.tl !open_spans)
      f
  end

let dur s = s.t1 -. s.t0

(* The spans around the measured program work: one per property on the
   cold workloads, one per batch on serve_warm. *)
let is_root s = s.parent < 0 && (s.name = "verify" || s.name = "serve.run")

(* Self figures: a span's own duration and words minus its children's. *)
let self_table () =
  let children = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add children s.parent s) !spans;
  List.map
    (fun s ->
      let cs = Hashtbl.find_all children s.id in
      ( s,
        dur s -. sum (List.map dur cs),
        s.minor -. sum (List.map (fun c -> c.minor) cs),
        s.major -. sum (List.map (fun c -> c.major) cs) ))
    !spans

let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let write_spans file =
  let oc = open_out file in
  List.iter
    (fun s ->
      Json.to_channel oc
        (Json.Obj
           [ ("id", Json.Int s.id); ("name", Json.Str s.name);
             ("parent", Json.Int s.parent); ("prop", Json.Str s.prop);
             ("start", Json.Float s.t0); ("end", Json.Float s.t1);
             ("minor_words", Json.Float s.minor);
             ("major_words", Json.Float s.major);
             ("major_collections", Json.Int s.collections) ]);
      output_char oc '\n')
    (List.rev !spans);
  close_out oc

(* ---- process-global ATPG state ----------------------------------------- *)

(* The ATPG engine keeps a process-global MRU cache of SCOAP tables (8
   entries, keyed by view). Pushing eight throwaway one-register views
   through it before every property gives each cold run the same
   starting state whatever ran before it, so figures do not depend on
   the seed's property order. *)
let scoap_flush =
  let tiny =
    List.init 8 (fun _ -> Bench_io.parse "INPUT(a)\nOUTPUT(q)\nq = DFF(a)\n")
  in
  fun () ->
    List.iter
      (fun c ->
        ignore (Rfn_atpg.Atpg.solve (Sview.whole c ~roots:[]) ~frames:1 ~pins:[] ()))
      tiny

(* ---- set-up ------------------------------------------------------------- *)

type setup = {
  circuits : (design * Circuit.t) list;
  setup_s : float;  (** median over repetitions *)
  parse_s : float;
  coi_s : float;
  reps : int;
}

(* Parse every netlist of the workload and compute each property's cone
   of influence. A sample times enough consecutive set-ups to last about
   50 ms (one on the processor); at least 5 samples, up to about 1 s, and
   the medians per set-up are reported. *)
let set_up texts jobs =
  let once () =
    let t0 = now () in
    let circuits = List.map (fun (d, text) -> (d, Bench_io.parse text)) texts in
    let t1 = now () in
    List.iter
      (fun j ->
        let c = List.assoc j.design circuits in
        ignore (Coi.compute c ~roots:(Property.roots (property c j.prop))))
      jobs;
    let t2 = now () in
    (circuits, t1 -. t0, t2 -. t1)
  in
  Gc.compact ();
  let _, p, c = once () in
  let per = max 1 (int_of_float (0.05 /. (p +. c))) in
  let sample () =
    let rec go k circuits p c =
      if k = 0 then (circuits, p /. float_of_int per, c /. float_of_int per)
      else
        let circuits, p', c' = once () in
        go (k - 1) circuits (p +. p') (c +. c')
    in
    go per [] 0.0 0.0
  in
  let started = now () in
  let rec go acc n =
    let circuits, p, c = sample () in
    let acc = (p, c) :: acc in
    if n + 1 >= 5 && (now () -. started > 1.0 || n + 1 >= 25) then (circuits, acc, n + 1)
    else go acc (n + 1)
  in
  let circuits, samples, reps = go [] 0 in
  Gc.compact ();
  {
    circuits;
    setup_s = median (List.map (fun (p, c) -> p +. c) samples);
    parse_s = median (List.map fst samples);
    coi_s = median (List.map snd samples);
    reps = reps * per;
  }

(* ---- one property, one job ------------------------------------------- *)

type result = {
  job : job;
  verdict : verdict;
  seconds : float;  (** time to verdict *)
  cpu_s : float;  (** process CPU time to verdict (0 for server jobs) *)
  iterations : int;
  regs : int;  (** final abstract-model registers *)
  promoted : string list list;  (** per iteration *)
  error : string option;  (** failed check *)
}

let cycles r = match r.verdict with Falsified t -> Trace.length t - 1 | _ -> 0

let judge ~expect setup r =
  let c = List.assoc r.job.design setup.circuits in
  let prop = property c r.job.prop in
  let error =
    match span "sim3v.replay" (fun () -> check ~expect:(expect r.job.prop) c prop r.verdict) with
    | Ok () -> None
    | Error e ->
      log "FAIL %s/%s: %s" (design_name r.job.design) r.job.prop e;
      Some e
  in
  { r with error }

let verify_cold setup j =
  let c = List.assoc j.design setup.circuits in
  let prop = property c j.prop in
  scoap_flush ();
  (* start from a collected heap, as a fresh process would *)
  Gc.full_major ();
  let c0 = cpu () in
  let t0 = now () in
  let outcome, stats = Rfn.verify c prop in
  let seconds = now () -. t0 in
  {
    job = j;
    verdict = verdict_of_outcome outcome;
    seconds;
    cpu_s = cpu () -. c0;
    iterations = List.length stats.Rfn.provenance;
    regs = stats.Rfn.final_abstract_regs;
    promoted = List.map (fun p -> p.Provenance.promoted) stats.Rfn.provenance;
    error = None;
  }

(* ---- the serve batch --------------------------------------------------- *)

let batch_text texts jobs =
  String.concat ""
    (List.map
       (fun (j : job) ->
         let s =
           {
             Protocol.id = j.prop;
             design = Protocol.Netlist (List.assoc j.design texts);
             property = j.prop;
             budget =
               { Protocol.no_budget with
                 analyze = (if j.analyze then Some true else None) };
           }
         in
         Json.to_string (Protocol.submit_to_json s) ^ "\n")
       jobs)

let read_lines file =
  let ic = open_in file in
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file -> List.rev acc
  in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> go [])

(* Run the batch file through the real server; returns the batch wall
   and CPU time and one result per job. *)
let serve_batch ~work ~infile jobs =
  let outfile = Filename.concat work "serve-out.jsonl" in
  let input = Unix.openfile infile [ Unix.O_RDONLY ] 0 in
  let output = open_out outfile in
  let c0 = cpu () in
  let t0 = now () in
  let completed =
    Fun.protect
      ~finally:(fun () ->
        Unix.close input;
        close_out output)
      (fun () -> span "serve.run" (fun () -> Server.run ~input ~output ()))
  in
  let wall = now () -. t0 in
  let cpu_s = cpu () -. c0 in
  let lines = List.map Json.of_string (read_lines outfile) in
  let result_of id =
    List.find_opt
      (fun l ->
        Json.member "ev" l = Some (Json.Str "result")
        && Json.member "id" l = Some (Json.Str id))
      lines
  in
  let get f k l = Option.bind (Json.member k l) f in
  let results =
    List.map
      (fun (j : job) ->
        match result_of j.prop with
        | None ->
          { job = j; verdict = Aborted "no result line"; seconds = 0.0; cpu_s = 0.0;
            iterations = 0; regs = 0; promoted = []; error = None }
        | Some l ->
          let verdict =
            match get Json.to_str "verdict" l with
            | Some "proved" -> Proved
            | Some "falsified" -> (
              match Option.bind (Json.member "trace" l) Codec.trace_of_json with
              | Some t -> Falsified t
              | None -> Aborted "unreadable trace")
            | Some v -> Aborted v
            | None -> Aborted "no verdict"
          in
          let promoted =
            match Json.member "provenance" l with
            | Some (Json.List ps) ->
              List.map
                (fun p ->
                  match Provenance.of_json p with
                  | Ok p -> p.Provenance.promoted
                  | Error _ -> [ "?" ])
                ps
            | _ -> []
          in
          {
            job = j;
            verdict;
            seconds = Option.value ~default:0.0 (get Json.to_float "seconds" l);
            cpu_s = 0.0;
            iterations = Option.value ~default:0 (get Json.to_int "iterations" l);
            regs = Option.value ~default:0 (get Json.to_int "final_regs" l);
            promoted;
            error = None;
          })
      jobs
  in
  if completed <> List.length jobs then
    log "serve: %d of %d jobs completed" completed (List.length jobs);
  (wall, cpu_s, results)

(* ---- measurement ------------------------------------------------------- *)

(* One pass over every job: the traced run's reference and replay. *)
type round = { wall : float; results : result list }

let round_of_results results =
  { wall = sum (List.map (fun r -> r.seconds) results); results }

(* A measured run: every job's results, and the wall and CPU time of one
   pass over all jobs. *)
type measured = { samples : (job * result list) list; pass_wall : float; pass_cpu : float }

(* Cold workloads: whole rounds while another fits in the budget, then
   single properties that still fit, until none does, so a cheap
   property (processor mutex) gets several samples even when one round
   fills most of the budget. A job's figures are medians over its runs;
   a pass is the sum of the medians. *)
let measure_cold ~seconds jobs run =
  let started = now () in
  let runs = Hashtbl.create 8 in
  let once (j : job) = Hashtbl.add runs j.prop (run j) in
  let last (j : job) = (Hashtbl.find runs j.prop).seconds in
  let left () = seconds -. (now () -. started) in
  List.iter once jobs;
  while sum (List.map last jobs) <= left () do
    List.iter once jobs
  done;
  let rec fill () =
    match List.filter (fun j -> last j <= left ()) jobs with
    | [] -> ()
    | fits ->
      List.iter (fun j -> if last j <= left () then once j) fits;
      fill ()
  in
  fill ();
  let samples = List.map (fun (j : job) -> (j, List.rev (Hashtbl.find_all runs j.prop))) jobs in
  let pass f = sum (List.map (fun (_, rs) -> median (List.map f rs)) samples) in
  { samples; pass_wall = pass (fun r -> r.seconds); pass_cpu = pass (fun r -> r.cpu_s) }

(* serve_warm: whole batches while another fits (at least one). *)
let measure_batches ~seconds jobs batch =
  let started = now () in
  let rec go acc =
    let wall, cpu_s, results = batch () in
    let acc = (wall, cpu_s, results) :: acc in
    if now () -. started +. wall > seconds then List.rev acc else go acc
  in
  let batches = go [] in
  {
    samples =
      List.map
        (fun (j : job) ->
          (j, List.concat_map (fun (_, _, rs) -> List.filter (fun r -> r.job = j) rs) batches))
        jobs;
    pass_wall = median (List.map (fun (w, _, _) -> w) batches);
    pass_cpu = median (List.map (fun (_, c, _) -> c) batches);
  }

(* ---- traced replay of the CEGAR loop ------------------------------------ *)

exception Diverged of string

(* The four steps of [Rfn.verify_in_session] driven from the public
   functions, with a span around each call. Only the primary rung of
   each supervisor ladder is replayed: a run that needed a retry or a
   fallback shows up as a divergence. Returns the verdict, the promoted
   register names of every iteration and the final abstract-model
   register count. *)
let replay_cegar circuit prop =
  let config = Rfn.default_config in
  let roots = Property.roots prop in
  let bad = prop.Property.bad in
  let session = span "session.create" (fun () -> Rfn.prepare ~config circuit ~roots) in
  span "session.retarget" (fun () -> Session.retarget session ~roots);
  ignore (span "circuit.coi" (fun () -> Coi.compute circuit ~roots));
  let sup =
    Supervisor.start ~inject:(fun _ -> None) config.Rfn.supervisor
      ~max_seconds:config.Rfn.max_seconds
  in
  let rec iterate iter promoted =
    if iter > config.Rfn.max_iterations then raise (Diverged "iteration limit");
    let abstraction = Session.abstraction session in
    let { Session.vm; fn; img } = span "session.prepare" (fun () -> Session.prepare session) in
    let res =
      span "mc.reach" (fun () ->
          let init = Symbolic.initial_states vm in
          let bad_states = Reach.bad_predicate vm ~fn ~bad in
          Reach.run ~max_steps:config.Rfn.mc_max_steps
            ?max_seconds:(Supervisor.time_left sup) img ~vm ~init ~bad_states)
    in
    let finish v =
      (v, List.rev ([] :: promoted), Abstraction.num_regs (Session.abstraction session))
    in
    match res.Reach.outcome with
    | Reach.Proved -> finish Proved
    | Reach.Closed _ -> raise (Diverged "reachability closed")
    | Reach.Aborted r -> raise (Diverged ("abstract MC: " ^ Rfn_failure.resource_to_string r))
    | Reach.Reached k -> (
      let hybrids =
        span "hybrid.extract" (fun () ->
            Hybrid.extract_multi
              ~atpg_limits:
                (Supervisor.clamp_limits sup Supervisor.Hybrid_extract
                   config.Rfn.abstract_atpg)
              ~use_mincut:true ~fn
              ~count:(max 1 config.Rfn.guidance_traces)
              vm ~rings:res.Reach.rings ~target:(fn bad) ~k)
      in
      let hybrid = match hybrids with h :: _ -> h | [] -> raise (Diverged "no abstract trace") in
      let concrete, _ =
        span "concretize.guided" (fun () ->
            Concretize.guided_any
              ~limits:(Supervisor.concrete_limits sup config.Rfn.concrete_atpg)
              circuit ~bad
              ~abstract_traces:(List.map (fun h -> h.Hybrid.trace) hybrids))
      in
      match concrete with
      | Concretize.Found t -> finish (Falsified t)
      | Concretize.Not_found_here | Concretize.Gave_up _ ->
        (match concrete with Concretize.Gave_up _ -> Supervisor.escalate sup | _ -> ());
        let r =
          span "refine.crucial" (fun () ->
              Refine.crucial_registers
                ~atpg_limits:
                  (Supervisor.clamp_limits sup Supervisor.Refine config.Rfn.abstract_atpg)
                ~bad abstraction ~abstract_trace:hybrid.Hybrid.trace ())
        in
        if r.Refine.kept = [] then raise (Diverged "empty refinement");
        ignore (span "session.refine" (fun () -> Session.refine session ~add:r.Refine.kept));
        iterate (iter + 1) (List.map (Circuit.name circuit) r.Refine.kept :: promoted))
  in
  try iterate 1 [] with
  | Diverged why -> (Aborted ("replay: " ^ why), [], 0)
  | Bdd.Limit_exceeded -> (Aborted "replay: BDD node limit", [], 0)
  | Hybrid.Extraction_failed r ->
    (Aborted ("replay: extraction " ^ Rfn_failure.resource_to_string r), [], 0)

(* ---- per-layer counters ------------------------------------------------- *)

let counter_names =
  [ "session.cones_recompiled"; "session.cones_reused"; "session.grow_rebuilds";
    "session.retargets_warm"; "mc.post_images"; "mc.fixpoint_steps";
    "bdd.nodes_allocated"; "bdd.cache_hits"; "bdd.cache_misses";
    "hybrid.min_cut_steps"; "hybrid.no_cut_steps"; "hybrid.cube_retries";
    "concretize.attempts"; "concretize.found"; "atpg.solves"; "atpg.decisions";
    "atpg.backtracks"; "atpg.random_rounds"; "atpg.random_sat";
    "atpg.scoap_cache_hits"; "atpg.scoap_cache_misses"; "refine.trace_checks";
    "refine.candidates"; "refine.registers_added"; "sim.packed_words";
    "analysis.candidates"; "analysis.proved"; "analysis.pruned_queries";
    "sat.solves"; "sat.conflicts"; "serve.sessions_reused"; "supervisor.retries";
    "supervisor.fallbacks"; "supervisor.escalations" ]

(* The program's own layer spans around each CEGAR step (session
   preparation is inside [rfn.abstract_mc]). *)
let program_layer_spans =
  [ "rfn.abstract_mc"; "rfn.hybrid"; "rfn.concretize"; "rfn.refine"; "rfn.analyze" ]

let span_names = [ "refine.trace_check"; "analysis.run" ] @ program_layer_spans

(* Counters, program spans and the BDD peak accumulated over several
   telemetry windows ([Telemetry.reset] starts each one). *)
type layers = {
  counts : (string, int) Hashtbl.t;
  span_s : (string, float) Hashtbl.t;
  mutable bdd_peak : int;
}

let layers () = { counts = Hashtbl.create 64; span_s = Hashtbl.create 16; bdd_peak = 0 }

let window acc f =
  Telemetry.reset ();
  let x = f () in
  List.iter
    (fun n ->
      let v = Telemetry.counter_value (Telemetry.counter n) in
      Hashtbl.replace acc.counts n (v + Option.value ~default:0 (Hashtbl.find_opt acc.counts n)))
    counter_names;
  List.iter
    (fun n ->
      let v = match Telemetry.span_stats n with Some (_, s) -> s | None -> 0.0 in
      Hashtbl.replace acc.span_s n (v +. Option.value ~default:0.0 (Hashtbl.find_opt acc.span_s n)))
    span_names;
  acc.bdd_peak <- max acc.bdd_peak (Telemetry.gauge_peak (Telemetry.gauge "bdd.live_nodes"));
  x

let count acc n = float_of_int (Option.value ~default:0 (Hashtbl.find_opt acc.counts n))
let span_total acc n = Option.value ~default:0.0 (Hashtbl.find_opt acc.span_s n)
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ---- output --------------------------------------------------------------- *)

let print_result ~attempted ~failed metrics =
  let num v =
    if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
    else if Float.is_finite v then Printf.sprintf "%.17g" v
    else "0"
  in
  let ms =
    List.map
      (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (num v) u)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) attempted failed (String.concat ", " ms)

let failures results = List.length (List.filter (fun r -> r.error <> None) results)

let end_to_end setup m =
  let all = List.concat_map snd m.samples in
  let attempted = List.length all and failed = failures all in
  let total ?(only = fun _ -> true) f =
    sum
      (List.filter_map
         (fun (j, rs) -> if only j then Some (median (List.map f rs)) else None)
         m.samples)
  in
  let expected_true (j : job) = table1 j.prop = Some Holds in
  ( attempted,
    failed,
    [ ("wall_s", m.pass_wall, "s");
      ("cpu_s", m.pass_cpu, "s");
      ("setup_s", setup.setup_s, "s");
      ("prove_s", total ~only:expected_true (fun x -> x.seconds), "s");
      ("falsify_s", total ~only:(fun j -> not (expected_true j)) (fun x -> x.seconds), "s");
      ("peak_rss_mb", peak_rss_mb (), "MB");
      ( "verified_frac",
        1.0 -. (float_of_int failed /. float_of_int (max 1 attempted)),
        "ratio" );
      ("iterations", total (fun x -> float_of_int x.iterations), "count");
      ("abstract_regs", total (fun x -> float_of_int x.regs), "count");
      ("cex_cycles", total (fun x -> float_of_int (cycles x)), "count") ] )

let latency_metrics name durations =
  let p50, tail, pct, n = latency durations in
  [ ("lat." ^ name ^ ".p50_ms", p50 *. 1000.0, "ms");
    ("lat." ^ name ^ ".tail_ms", tail *. 1000.0, "ms");
    ("lat." ^ name ^ ".tail_pct", float_of_int pct, "%");
    ("lat." ^ name ^ ".calls", float_of_int n, "count") ]

(* Divergences between the reference run and the traced one: verdict
   (counterexamples compared cycle by cycle), iteration count, final
   abstract-model size and the promoted register names of every
   iteration. *)
let divergences reference traced =
  List.fold_left2
    (fun n (a : result) (b : result) ->
      let same_verdict =
        match (a.verdict, b.verdict) with
        | Proved, Proved -> true
        | Falsified s, Falsified t -> s = t
        | _ -> false
      in
      let issues =
        (if same_verdict then [] else [ "verdict" ])
        @ (if a.iterations = b.iterations then []
           else [ Printf.sprintf "iterations %d vs %d" a.iterations b.iterations ])
        @ (if a.regs = b.regs then []
           else [ Printf.sprintf "abstract registers %d vs %d" a.regs b.regs ])
        @ if a.promoted = b.promoted then [] else [ "promoted registers" ]
      in
      List.iter (fun i -> log "DIVERGENCE %s: %s" a.job.prop i) issues;
      n + List.length issues)
    0 reference traced

(* The per-layer metrics. [self] is the span table of the traced part;
   time layers not separable on serve_warm are 0 there (see NOTES.md). *)
let per_layer ~setup ~acc ~self ~traced_wall ~untraced_wall ~divergences ~extra =
  let self_s name = sum (List.filter_map (fun (s, t, _, _) -> if s.name = name then Some t else None) self) in
  let durations name = List.filter_map (fun (s, _, _, _) -> if s.name = name then Some (dur s) else None) self in
  let words layer pick =
    sum (List.filter_map (fun (s, _, mi, ma) -> if layer_of s.name = layer then Some (pick (mi, ma)) else None) self)
    /. 1e6
  in
  let roots = List.filter (fun (s, _, _, _) -> is_root s) self in
  let total pick = sum (List.map (fun (s, _, _, _) -> pick s) roots) /. 1e6 in
  (* time inside the traced roots not covered by a layer span: the
     benchmark's own spans on the cold workloads, the program's
     [rfn.*] spans inside [Server.run] on serve_warm *)
  let unattributed =
    sum (List.map (fun (_, t, _, _) -> t) roots)
    -. sum (List.map (span_total acc) program_layer_spans)
  in
  let c = count acc in
  let pick_or name fallback = if self_s name > 0.0 then self_s name else span_total acc fallback in
  [ ("circuit.parse_s", setup.parse_s, "s");
    ("circuit.coi_s", setup.coi_s, "s");
    ("session.prepare_s", self_s "session.prepare", "s");
    ("session.cones_recompiled", c "session.cones_recompiled", "count");
    ( "session.reuse_ratio",
      ratio (c "session.cones_reused") (c "session.cones_reused" +. c "session.cones_recompiled"),
      "ratio" );
    ("session.grow_rebuilds", c "session.grow_rebuilds", "count");
    ("session.retargets_warm", c "session.retargets_warm", "count");
    ("mc.reach_s", pick_or "mc.reach" "rfn.abstract_mc", "s");
    ("mc.post_images", c "mc.post_images", "count");
    ("mc.fixpoint_steps", c "mc.fixpoint_steps", "count");
    ("bdd.nodes_allocated", c "bdd.nodes_allocated", "count");
    ("bdd.peak_live_nodes", float_of_int acc.bdd_peak, "count");
    ("bdd.cache_hit_ratio", ratio (c "bdd.cache_hits") (c "bdd.cache_hits" +. c "bdd.cache_misses"), "ratio");
    ("hybrid.extract_s", pick_or "hybrid.extract" "rfn.hybrid", "s");
    ("hybrid.min_cut_steps", c "hybrid.min_cut_steps", "count");
    ("hybrid.no_cut_steps", c "hybrid.no_cut_steps", "count");
    ("hybrid.cube_retries", c "hybrid.cube_retries", "count");
    ("concretize.s", pick_or "concretize.guided" "rfn.concretize", "s");
    ("concretize.found_ratio", ratio (c "concretize.found") (c "concretize.attempts"), "ratio");
    ("atpg.solves", c "atpg.solves", "count");
    ("atpg.decisions", c "atpg.decisions", "count");
    ("atpg.backtracks", c "atpg.backtracks", "count");
    ("atpg.random_sat_ratio", ratio (c "atpg.random_sat") (c "atpg.random_rounds"), "ratio");
    ( "atpg.scoap_hit_ratio",
      ratio (c "atpg.scoap_cache_hits") (c "atpg.scoap_cache_hits" +. c "atpg.scoap_cache_misses"),
      "ratio" );
    ("refine.s", pick_or "refine.crucial" "rfn.refine", "s");
    ("refine.trace_check_s", span_total acc "refine.trace_check", "s");
    ("refine.trace_checks", c "refine.trace_checks", "count");
    ("refine.kept_ratio", ratio (c "refine.registers_added") (c "refine.candidates"), "ratio");
    ("sim3v.packed_words", c "sim.packed_words", "count");
    ("sim3v.replay_s", self_s "sim3v.replay", "s");
    ("analysis.run_s", span_total acc "analysis.run", "s");
    ("analysis.proved_ratio", ratio (c "analysis.proved") (c "analysis.candidates"), "ratio");
    ("analysis.pruned_queries", c "analysis.pruned_queries", "count");
    ("sat.solves", c "sat.solves", "count");
    ("sat.conflicts", c "sat.conflicts", "count");
    ("serve.sessions_reused", c "serve.sessions_reused", "count");
    ( "supervisor.rungs",
      c "supervisor.retries" +. c "supervisor.fallbacks" +. c "supervisor.escalations",
      "count" );
    ("gc.minor_mwords", total (fun s -> s.minor), "Mwords");
    ("gc.major_mwords", total (fun s -> s.major), "Mwords");
    ( "gc.major_collections",
      float_of_int (List.fold_left (fun n (s, _, _, _) -> n + s.collections) 0 roots),
      "count" ) ]
  @ List.concat_map
      (fun l ->
        [ ("gc." ^ l ^ ".minor_mwords", words l fst, "Mwords");
          ("gc." ^ l ^ ".major_mwords", words l snd, "Mwords") ])
      [ "session"; "mc"; "hybrid"; "concretize"; "refine"; "analysis" ]
  @ List.concat_map
      (fun n -> latency_metrics n (durations n))
      [ "session.prepare"; "mc.reach"; "hybrid.extract"; "concretize.guided"; "refine.crucial" ]
  @ [ ("trace.divergences", float_of_int divergences, "count");
      ("trace.unattributed_share", ratio unattributed traced_wall, "ratio");
      ("trace.overhead_s", traced_wall -. untraced_wall, "s");
      ("trace.wall_s", traced_wall, "s") ]
  @ extra

(* Per-property layer split of the traced run (stderr), the figures the
   notes compare with the ROADMAP's reference measurements. *)
let report_split ~trace_checks self =
  let props = List.sort_uniq compare (List.map (fun (s, _, _, _) -> s.prop) self) in
  List.iter
    (fun p ->
      let mine = List.filter (fun (s, _, _, _) -> s.prop = p) self in
      let by name = sum (List.filter_map (fun (s, t, _, _) -> if s.name = name then Some t else None) mine) in
      let root = List.filter (fun (s, _, _, _) -> s.parent < 0 && s.name = "verify") mine in
      log
        "split %s: total %.2fs prepare %.2fs mc %.2fs hybrid %.2fs concretize %.2fs refine %.2fs \
         (trace checks %.2fs) minor %.3fG major-direct %.3fG major collections %d"
        p (sum (List.map (fun (s, _, _, _) -> dur s) root)) (by "session.prepare") (by "mc.reach")
        (by "hybrid.extract") (by "concretize.guided") (by "refine.crucial")
        (Option.value ~default:0.0 (List.assoc_opt p trace_checks))
        (sum (List.map (fun (s, _, _, _) -> s.minor) root) /. 1e9)
        (sum (List.map (fun (s, _, _, _) -> s.major) root) /. 1e9)
        (List.fold_left (fun n (s, _, _, _) -> n + s.collections) 0 root))
    props

(* ---- the workloads ------------------------------------------------------ *)

let run ~workload ~seed ~seconds ~trace ~work =
  let jobs =
    match workload_jobs workload with
    | Some j -> j
    | None ->
      log "unknown workload %S (proc_cold, fifo_cold, serve_warm)" workload;
      exit 2
  in
  let rng = Random.State.make [| seed |] in
  let jobs = shuffle rng jobs in
  log "workload %s seed %d: %s" workload seed
    (String.concat " " (List.map (fun (j : job) -> j.prop) jobs));
  let designs = List.sort_uniq compare (List.map (fun (j : job) -> j.design) jobs) in
  let texts = List.map (fun d -> (d, netlist_text d)) designs in
  let setup = set_up texts jobs in
  log "set-up: %.5fs (parse %.5fs, coi %.5fs) over %d repetitions" setup.setup_s setup.parse_s
    setup.coi_s setup.reps;
  let expect = table1 in
  let serve = workload = "serve_warm" in
  let infile = Filename.concat work "serve-in.jsonl" in
  if serve then begin
    let oc = open_out infile in
    output_string oc (batch_text texts jobs);
    close_out oc
  end;
  let batch () =
    let wall, cpu_s, results = serve_batch ~work ~infile jobs in
    (wall, cpu_s, List.map (judge ~expect setup) results)
  in
  let cold j = judge ~expect setup (verify_cold setup j) in
  let one_round () =
    if serve then
      let wall, _, results = batch () in
      { wall; results }
    else round_of_results (List.map cold jobs)
  in
  let log_round r =
    List.iter
      (fun x ->
        log "  %s: %s in %.3fs, %d iterations, %d registers" x.job.prop
          (match x.verdict with
           | Proved -> "True"
           | Falsified t -> Printf.sprintf "False (%d cycles)" (Trace.length t - 1)
           | Aborted w -> "aborted " ^ w)
          x.seconds x.iterations x.regs)
      r.results
  in
  if trace = 0 then begin
    let m =
      if serve then measure_batches ~seconds jobs batch else measure_cold ~seconds jobs cold
    in
    List.iter
      (fun ((j : job), rs) ->
        log "%s: %d run(s): %s" j.prop (List.length rs)
          (String.concat " " (List.map (fun r -> Printf.sprintf "%.3f" r.seconds) rs)))
      m.samples;
    log "pass: %.3fs wall, %.3fs cpu" m.pass_wall m.pass_cpu;
    let attempted, failed, metrics = end_to_end setup m in
    print_result ~attempted ~failed metrics
  end
  else begin
    let reference = one_round () in
    log "reference round:";
    log_round reference;
    let acc = layers () in
    let trace_checks = ref [] in
    Telemetry.enable ();
    tracing := true;
    let traced, traced_wall, extra =
      if serve then begin
        let wall, _, results = window acc (fun () -> serve_batch ~work ~infile jobs) in
        let results = List.map (judge ~expect setup) results in
        (* the analysis the server ran on the FIFO, called directly so
           its allocation can be attributed *)
        let fifo = List.assoc Fifo setup.circuits in
        current_prop := "fifo";
        ignore (window acc (fun () -> span "analysis.run" (fun () -> Rfn_analysis.Analysis.run fifo)));
        ( { wall; results },
          wall,
          [ ("serve.overhead_s", wall -. sum (List.map (fun r -> r.seconds) results), "s") ]
          @ latency_metrics "serve.job" (List.map (fun r -> r.seconds) results) )
      end
      else begin
        let results =
          List.map
            (fun j ->
              let c = List.assoc j.design setup.circuits in
              let prop = property c j.prop in
              current_prop := j.prop;
              scoap_flush ();
              Gc.full_major ();
              let t0 = now () in
              let checks0 = span_total acc "refine.trace_check" in
              let verdict, promoted, regs =
                window acc (fun () -> span "verify" (fun () -> replay_cegar c prop))
              in
              trace_checks := (j.prop, span_total acc "refine.trace_check" -. checks0) :: !trace_checks;
              judge ~expect setup
                { job = j; verdict; seconds = now () -. t0; cpu_s = 0.0;
                  iterations = List.length promoted; regs; promoted; error = None })
            jobs
        in
        let r = round_of_results results in
        let wall = sum (List.map dur (List.filter is_root !spans)) in
        ( r,
          wall,
          [ ("serve.overhead_s", 0.0, "s") ] @ latency_metrics "serve.job" [] )
      end
    in
    tracing := false;
    Telemetry.disable ();
    log "traced round:";
    log_round traced;
    let self = self_table () in
    if not serve then report_split ~trace_checks:!trace_checks self;
    let divergences = divergences reference.results traced.results in
    let file = Filename.concat work (Printf.sprintf "spans-%s-%d.jsonl" workload seed) in
    write_spans file;
    log "spans: %s (%d)" file (List.length !spans);
    let all = reference.results @ traced.results in
    let failed = failures all + divergences in
    let metrics =
      per_layer ~setup ~acc ~self ~traced_wall ~untraced_wall:reference.wall ~divergences ~extra
    in
    print_result ~attempted:(List.length all) ~failed metrics
  end

(* ---- self-test ------------------------------------------------------------ *)

(* The benchmark's own check has teeth: a forged expectation and a
   truncated counterexample must both count as failures. *)
let selftest () =
  let jobs = Option.get (workload_jobs "fifo_cold") in
  let setup = set_up [ (Fifo, netlist_text Fifo) ] jobs in
  let results = List.map (verify_cold setup) jobs in
  let frac expect =
    let judged = List.map (judge ~expect setup) results in
    float_of_int (failures judged) /. float_of_int (List.length judged)
  in
  let honest = frac table1 in
  let forged = frac (function "psh_hf" -> Some (Fails 3) | p -> table1 p) in
  let short_cex =
    frac (function "full_flag" -> Some (Fails 15) | p -> table1 p)
  in
  (* a counterexample cut short of the bad cycle must fail replay *)
  let truncated =
    List.map
      (fun r ->
        match r.verdict with
        | Falsified t ->
          let k = Trace.length t - 1 in
          let cut = Trace.make ~states:(Array.sub t.Trace.states 0 k)
              ~inputs:(Array.sub t.Trace.inputs 0 (min k (Array.length t.Trace.inputs))) in
          { r with verdict = Falsified cut }
        | _ -> r)
      results
  in
  let replay_frac =
    let expect = function "full_flag" -> Some (Fails 15) | p -> table1 p in
    let judged = List.map (judge ~expect setup) truncated in
    float_of_int (failures judged) /. float_of_int (List.length judged)
  in
  let quarter = 1.0 /. float_of_int (List.length jobs) in
  let cases =
    [ ("honest expectations", honest, 0.0); ("forged verdict", forged, quarter);
      ("forged counterexample length", short_cex, quarter);
      ("truncated counterexample", replay_frac, quarter) ]
  in
  let ok =
    List.for_all
      (fun (what, got, want) ->
        let pass = Float.abs (got -. want) < 1e-9 in
        Printf.printf "%s: failed_frac %.3f (want %.3f) %s\n" what got want
          (if pass then "ok" else "FAIL");
        pass)
      cases
  in
  exit (if ok then 0 else 1)

(* ---- command line ---------------------------------------------------------- *)

let () =
  pin_environment ();
  match Array.to_list Sys.argv with
  | _ :: "selftest" :: _ -> selftest ()
  | _ :: "run" :: args ->
    let workload = ref "" and seed = ref 0 and seconds = ref 10.0 and trace = ref 0 in
    let work = ref ".perfbench" in
    let rec parse = function
      | "--workload" :: v :: rest -> workload := v; parse rest
      | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
      | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
      | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
      | "--work" :: v :: rest -> work := v; parse rest
      | [] -> ()
      | a :: _ -> log "unexpected argument %S" a; exit 2
    in
    parse args;
    if not (Sys.file_exists !work) then Sys.mkdir !work 0o755;
    run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:!trace ~work:!work
  | _ ->
    log "usage: main.exe run --workload W --seed N --seconds S --trace 0|1 [--work DIR]\n\
        \       main.exe selftest";
    exit 2
