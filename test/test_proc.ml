(* The rfn.proc library: wire codecs and crash-safe resume.

   Two layers under test: the cube/trace codecs and the checkpoint
   format, and the CEGAR driver's use of checkpoints — a killed run
   must resume from its last completed refinement instead of
   restarting, and a stale checkpoint must be ignored. *)

open Rfn_circuit
module Rfn = Rfn_core.Rfn
module Codec = Rfn_proc.Codec
module Checkpoint = Rfn_proc.Checkpoint
module Json = Rfn_obs.Json
module Provenance = Rfn_obs.Provenance
module F = Rfn_failure

(* ------------------------------------------------------------------ *)
(* Wire codecs                                                         *)
(* ------------------------------------------------------------------ *)

let test_cube_roundtrip () =
  let c = Cube.of_list [ (3, true); (7, false); (11, true) ] in
  (match Codec.cube_of_json (Codec.cube_to_json c) with
  | Some c' ->
    Alcotest.(check (list (pair int bool)))
      "cube round-trips" (Cube.to_list c) (Cube.to_list c')
  | None -> Alcotest.fail "cube failed to decode");
  match Codec.cube_of_json (Codec.cube_to_json Cube.empty) with
  | Some c' -> Alcotest.(check bool) "empty cube" true (Cube.is_empty c')
  | None -> Alcotest.fail "empty cube failed to decode"

let test_cube_decoder_total () =
  let bad =
    [
      (* a contradictory cube: signal 3 both true and false *)
      Json.List
        [
          Json.List [ Json.Int 3; Json.Bool true ];
          Json.List [ Json.Int 3; Json.Bool false ];
        ];
      (* wrong arity *)
      Json.List [ Json.List [ Json.Int 3 ] ];
      (* wrong element types *)
      Json.List [ Json.List [ Json.Str "x"; Json.Bool true ] ];
      (* not a list at all *)
      Json.Str "cube";
    ]
  in
  List.iter
    (fun j ->
      Alcotest.(check bool)
        "malformed cube decodes to None" true
        (Codec.cube_of_json j = None))
    bad

let test_trace_roundtrip () =
  let cube l = Cube.of_list l in
  let t =
    Trace.make
      ~states:[| cube [ (1, false) ]; cube [ (1, true); (2, false) ] |]
      ~inputs:[| cube [ (5, true) ] |]
  in
  match Codec.trace_of_json (Codec.trace_to_json t) with
  | Some t' ->
    Alcotest.(check int) "same length" (Trace.length t) (Trace.length t');
    Array.iteri
      (fun i s ->
        Alcotest.(check (list (pair int bool)))
          "state cubes agree" (Cube.to_list s)
          (Cube.to_list t'.Trace.states.(i)))
      t.Trace.states
  | None -> Alcotest.fail "trace failed to decode"

let test_trace_decoder_total () =
  let cube = Codec.cube_to_json (Cube.of_list [ (1, true) ]) in
  let bad =
    [
      (* invariant violation: 1 state needs 0 or 1 input cubes *)
      Json.Obj
        [
          ("states", Json.List [ cube ]);
          ("inputs", Json.List [ cube; cube; cube ]);
        ];
      (* empty trace *)
      Json.Obj [ ("states", Json.List []); ("inputs", Json.List []) ];
      (* missing field *)
      Json.Obj [ ("states", Json.List [ cube ]) ];
    ]
  in
  List.iter
    (fun j ->
      Alcotest.(check bool)
        "malformed trace decodes to None" true
        (Codec.trace_of_json j = None))
    bad

(* ------------------------------------------------------------------ *)
(* Checkpoints                                                         *)
(* ------------------------------------------------------------------ *)

let sample_provenance =
  {
    Provenance.iter = 1;
    regs_before = 2;
    regs_after = 4;
    model_inputs = 6;
    fixpoint_steps = 5;
    trace_depth = Some 3;
    cut_size = None;
    cubes = 8;
    guidance = 1;
    concretize = "not-found";
    promoted = [ "r1"; "r2" ];
    candidates = 4;
    retries = 0;
    fallbacks = 0;
    injected = 0;
    bdd_nodes = 100;
    bdd_peak = 200;
    backtracks = 3;
    seconds = 0.5;
    outcome = "refined";
  }

let temp_checkpoint () =
  let file = Filename.temp_file "rfn_ck" ".json" in
  Sys.remove file;
  file

let test_checkpoint_roundtrip () =
  let file = temp_checkpoint () in
  let ck =
    Checkpoint.make ~netlist_hash:"abc123" ~property:"bad" ~iteration:4
      ~seconds_used:1.25 ~escalation:8
      ~regs:[ "cnt_0"; "cnt_1"; "full" ]
      ~provenance:[ sample_provenance ] ()
  in
  Checkpoint.save file ck;
  (match Checkpoint.load file with
  | Ok ck' ->
    Alcotest.(check bool) "round-trips exactly" true (ck' = ck);
    Alcotest.(check bool)
      "validates against its own run" true
      (Checkpoint.validate ck' ~netlist_hash:"abc123" ~property:"bad" = Ok ())
  | Error e -> Alcotest.fail ("load failed: " ^ e));
  Sys.remove file

let test_checkpoint_validation_rejects () =
  let ck =
    Checkpoint.make ~netlist_hash:"abc123" ~property:"bad" ~iteration:1
      ~seconds_used:0. ~escalation:1 ~regs:[] ~provenance:[] ()
  in
  let rejected = function Error _ -> true | Ok () -> false in
  Alcotest.(check bool)
    "stale netlist rejected" true
    (rejected (Checkpoint.validate ck ~netlist_hash:"other" ~property:"bad"));
  Alcotest.(check bool)
    "wrong property rejected" true
    (rejected (Checkpoint.validate ck ~netlist_hash:"abc123" ~property:"ok"))

let test_checkpoint_load_errors () =
  let fails file =
    match Checkpoint.load file with Error _ -> true | Ok _ -> false
  in
  Alcotest.(check bool)
    "missing file is an Error" true
    (fails "/nonexistent/rfn_ck.json");
  let file = Filename.temp_file "rfn_ck" ".json" in
  let put s =
    let oc = open_out file in
    output_string oc s;
    close_out oc
  in
  put "{ torn json";
  Alcotest.(check bool) "torn JSON is an Error" true (fails file);
  put "{\"version\": 999}";
  Alcotest.(check bool) "unknown version is an Error" true (fails file);
  Sys.remove file;
  (* a directory opens fine and fails only when measured or read *)
  Alcotest.(check bool)
    "a directory is an Error" true
    (fails (Filename.get_temp_dir_name ()))

let test_hash_discriminates () =
  let a = Checkpoint.hash_circuit (Helpers.counter_design ~width:3 ~limit:7) in
  let a' = Checkpoint.hash_circuit (Helpers.counter_design ~width:3 ~limit:7) in
  let b = Checkpoint.hash_circuit (Helpers.counter_design ~width:4 ~limit:7) in
  Alcotest.(check string) "stable across rebuilds" a a';
  Alcotest.(check bool) "differs across designs" true (a <> b)

(* ------------------------------------------------------------------ *)
(* Checkpoint and resume in the CEGAR loop                             *)
(* ------------------------------------------------------------------ *)

(* Injection pinned off so the differentials stay meaningful under the
   chaos CI job (which sets RFN_INJECT_FAULTS for the whole suite). *)
let config ?checkpoint ?(resume = false) ?(max_iterations = 32) () =
  {
    Rfn.default_config with
    Rfn.max_iterations;
    node_limit = 500_000;
    mc_max_steps = 200;
    inject = Some (fun _ -> None);
    checkpoint;
    resume;
  }

let test_checkpoint_resume_differential () =
  let fifo = Rfn_designs.Fifo.(make ~params:small ()) in
  let circuit = fifo.Rfn_designs.Fifo.circuit in
  let prop = fifo.Rfn_designs.Fifo.psh_hf in
  let file = temp_checkpoint () in
  (* Reference: uninterrupted run. fifo/psh_hf needs >1 iteration, so
     killing after the first leaves real progress behind. *)
  let ref_outcome, ref_stats = Rfn.verify ~config:(config ()) circuit prop in
  let ref_iters = List.length ref_stats.Rfn.iterations in
  Alcotest.(check bool) "reference run refines" true (ref_iters > 1);
  (* "Kill" the run after one iteration: the iteration cap aborts it,
     which keeps the checkpoint on disk. *)
  (match
     Rfn.verify
       ~config:(config ~checkpoint:file ~max_iterations:1 ())
       circuit prop
   with
  | Rfn.Aborted f, _ ->
    Alcotest.(check bool) "killed on the cap" true (f.F.resource = F.Iterations)
  | _ -> Alcotest.fail "one iteration cannot settle fifo/psh_hf");
  Alcotest.(check bool) "abort kept the checkpoint" true (Sys.file_exists file);
  (* Resume: same verdict, iteration numbering continues, and strictly
     fewer iterations run in this process than the reference needed. *)
  let outcome, stats =
    Rfn.verify ~config:(config ~checkpoint:file ~resume:true ()) circuit prop
  in
  (match (outcome, ref_outcome) with
  | Rfn.Proved, Rfn.Proved -> ()
  | _ -> Alcotest.fail "resumed verdict diverges from the reference");
  Alcotest.(check bool)
    "resume skipped completed iterations" true
    (stats.Rfn.resumed_iterations > 0);
  Alcotest.(check bool)
    "strictly fewer iterations than a fresh run" true
    (List.length stats.Rfn.iterations < ref_iters);
  Alcotest.(check bool)
    "provenance still covers the whole run" true
    (List.length stats.Rfn.provenance >= List.length stats.Rfn.iterations);
  Alcotest.(check bool)
    "conclusive verdict retired the checkpoint" false (Sys.file_exists file)

let test_stale_checkpoint_starts_fresh () =
  (* A checkpoint from a different design must be ignored (with a
     warning), not silently re-seed the abstraction. *)
  let file = temp_checkpoint () in
  let ck =
    Checkpoint.make ~netlist_hash:"not-this-design" ~property:"at_limit"
      ~iteration:7 ~seconds_used:0. ~escalation:1
      ~regs:[ "no_such_register" ]
      ~provenance:[] ()
  in
  Checkpoint.save file ck;
  let circuit = Helpers.counter_design ~width:3 ~limit:7 in
  let prop = Property.of_output circuit "at_limit" in
  let outcome, stats =
    Rfn.verify ~config:(config ~checkpoint:file ~resume:true ()) circuit prop
  in
  Alcotest.(check int) "nothing was resumed" 0 stats.Rfn.resumed_iterations;
  (match outcome with
  | Rfn.Falsified _ -> ()
  | _ -> Alcotest.fail "counter3/at_limit should still be falsified");
  if Sys.file_exists file then Sys.remove file

let tests =
  [
    Alcotest.test_case "cube codec round-trips" `Quick test_cube_roundtrip;
    Alcotest.test_case "cube decoder is total" `Quick test_cube_decoder_total;
    Alcotest.test_case "trace codec round-trips" `Quick test_trace_roundtrip;
    Alcotest.test_case "trace decoder is total" `Quick test_trace_decoder_total;
    Alcotest.test_case "checkpoint round-trips" `Quick test_checkpoint_roundtrip;
    Alcotest.test_case "checkpoint validation rejects mismatches" `Quick
      test_checkpoint_validation_rejects;
    Alcotest.test_case "checkpoint load never raises" `Quick
      test_checkpoint_load_errors;
    Alcotest.test_case "netlist hash discriminates designs" `Quick
      test_hash_discriminates;
    Alcotest.test_case "checkpoint, kill, resume: same verdict, fewer \
                        iterations"
      `Quick test_checkpoint_resume_differential;
    Alcotest.test_case "a stale checkpoint starts fresh" `Quick
      test_stale_checkpoint_starts_fresh;
  ]

let () = Alcotest.run "proc" [ ("proc", tests) ]
