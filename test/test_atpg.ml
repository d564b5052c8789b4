open Rfn_circuit
module B = Circuit.Builder
module Telemetry = Rfn_obs.Telemetry
module Atpg = Rfn_atpg.Atpg
module Sim3v = Rfn_sim3v.Sim3v
module Bdd = Rfn_bdd.Bdd
module Varmap = Rfn_mc.Varmap
module Symbolic = Rfn_mc.Symbolic

(* ---- combinational: ATPG verdict vs BDD satisfiability ------------ *)

(* For a random circuit and a random pinned signal/value, ATPG's
   SAT/UNSAT must agree with the BDD of the signal (with registers
   free, i.e. treated as inputs). *)
let comb_vs_bdd =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"combinational ATPG agrees with BDDs"
       (QCheck.pair
          (Helpers.arbitrary_circuit ~nins:4 ~nregs:3 ~ngates:14)
          QCheck.bool)
       (fun (rc, want) ->
         let c = rc.Helpers.circuit in
         let view = Sview.whole c ~roots:[ rc.Helpers.out ] in
         let vm = Varmap.make view in
         let fn = Symbolic.functions vm in
         let f = fn rc.Helpers.out in
         let f = if want then f else Bdd.dnot (Varmap.man vm) f in
         (* free_init so frame-0 registers are decision variables, like
            the BDD's current-state variables *)
         let answer, _ =
           Atpg.solve ~free_init:true view ~frames:1
             ~pins:[ (0, rc.Helpers.out, want) ]
             ()
         in
         match answer with
         | Atpg.Sat trace ->
           (not (Bdd.is_zero f))
           && (* the witness must actually drive the signal *)
           (let assign s =
              match
                Cube.value (Trace.state trace 0) s
              with
              | Some b -> b
              | None -> (
                match Cube.value (Trace.input trace 0) s with
                | Some b -> b
                | None -> false)
            in
            let values =
              Circuit.eval c ~input:(fun s -> assign s) ~state:(fun r -> assign r)
            in
            values.(rc.Helpers.out) = want)
         | Atpg.Unsat -> Bdd.is_zero f
         | Atpg.Abort _ -> QCheck.assume_fail ()))

(* ---- sequential: verdict vs explicit-state reachability ------------ *)

let seq_vs_explicit =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:80 ~name:"sequential ATPG vs explicit search"
       (QCheck.pair
          (Helpers.arbitrary_circuit ~nins:2 ~nregs:3 ~ngates:10)
          (QCheck.int_range 1 5))
       (fun (rc, depth) ->
         let c = rc.Helpers.circuit in
         let view = Sview.whole c ~roots:[ rc.Helpers.out ] in
         let answer, _ =
           Atpg.solve view ~frames:depth ~pins:[ (depth - 1, rc.Helpers.out, true) ] ()
         in
         (* explicit bounded search from the initial state *)
         let inputs = c.Circuit.inputs in
         let nins = Array.length inputs in
         let idx arr x =
           let rec go i = if arr.(i) = x then i else go (i + 1) in
           go 0
         in
         (* The ATPG query asks for the objective at exactly frame
            depth-1 (state after depth-1 transitions, with that frame's
            input vector free). *)
         let rec exact st transitions_left =
           let found = ref false in
           for iv = 0 to (1 lsl nins) - 1 do
             if not !found then begin
               let input s = iv land (1 lsl idx inputs s) <> 0 in
               if transitions_left = 0 then begin
                 let values = Circuit.eval c ~input ~state:st in
                 if values.(rc.Helpers.out) then found := true
               end
               else begin
                 let _, next = Circuit.step c ~input ~state:st in
                 if exact (fun r -> next r) (transitions_left - 1) then
                   found := true
               end
             end
           done;
           !found
         in
         let init r = Circuit.initial_state c ~free:(fun _ -> false) r in
         (* free-init registers are rare in the generator; restrict to
            concrete-init circuits to keep the reference simple *)
         QCheck.assume
           (Array.for_all
              (fun r ->
                match Circuit.node c r with
                | Circuit.Reg { init = `Free; _ } -> false
                | _ -> true)
              c.Circuit.registers);
         match answer with
         | Atpg.Sat t ->
           Trace.length t = depth
           && Sim3v.replay_concrete c t ~bad:rc.Helpers.out
         | Atpg.Unsat -> not (exact init (depth - 1))
         | Atpg.Abort _ -> QCheck.assume_fail ()))

(* ---- pins and constraints ----------------------------------------- *)

let test_pin_on_free_input () =
  let c = Helpers.counter_design ~width:2 ~limit:3 in
  let bad = Circuit.output c "at_limit" in
  let en = Circuit.find c "enable" in
  let view = Sview.whole c ~roots:[ bad ] in
  (* with enable pinned low at every cycle the limit is unreachable *)
  let pins =
    (3, bad, true) :: List.init 4 (fun f -> (f, en, false))
  in
  let answer, _ = Atpg.solve view ~frames:4 ~pins () in
  Alcotest.(check bool) "unsat under hostile pins" true (answer = Atpg.Unsat);
  (* without the hostile pins it is satisfiable at depth 4 *)
  let answer, _ = Atpg.solve view ~frames:4 ~pins:[ (3, bad, true) ] () in
  match answer with
  | Atpg.Sat t ->
    Alcotest.(check bool) "replays" true (Sim3v.replay_concrete c t ~bad)
  | _ -> Alcotest.fail "expected Sat"

let test_contradictory_root_pins () =
  let c = Helpers.counter_design ~width:2 ~limit:3 in
  let bad = Circuit.output c "at_limit" in
  let en = Circuit.find c "enable" in
  let view = Sview.whole c ~roots:[ bad ] in
  let answer, _ =
    Atpg.solve view ~frames:2 ~pins:[ (0, en, true); (0, en, false) ] ()
  in
  Alcotest.(check bool) "contradiction is Unsat" true (answer = Atpg.Unsat)

let test_objective_on_initial_state () =
  let c = Helpers.counter_design ~width:2 ~limit:0 in
  let bad = Circuit.output c "at_limit" in
  let view = Sview.whole c ~roots:[ bad ] in
  (* counter starts at 0, so at_limit(=0) holds in frame 0 *)
  let answer, _ = Atpg.solve view ~frames:1 ~pins:[ (0, bad, true) ] () in
  Alcotest.(check bool) "initial state satisfies" true
    (match answer with Atpg.Sat _ -> true | _ -> false);
  let answer, _ = Atpg.solve view ~frames:1 ~pins:[ (0, bad, false) ] () in
  Alcotest.(check bool) "cannot falsify frame 0 value" true
    (answer = Atpg.Unsat)

let test_backtrack_limit_aborts () =
  (* an unsatisfiable parity problem with a tiny budget *)
  let b = Circuit.Builder.create () in
  let module B = Circuit.Builder in
  let ins = Array.init 16 (fun i -> B.input b (Printf.sprintf "i%d" i)) in
  let x = B.gate b Gate.Xor ins in
  let y = B.gate b Gate.Xnor ins in
  let both = B.and2 b x y in
  B.output b "both" both;
  let c = B.finalize b in
  let view = Sview.whole c ~roots:[ both ] in
  let answer, stats =
    Atpg.solve
      ~limits:{ Atpg.max_backtracks = 3; max_seconds = None }
      view ~frames:1
      ~pins:[ (0, both, true) ]
      ()
  in
  Alcotest.(check bool) "aborts at limit" true
    (match answer with Atpg.Abort _ -> true | _ -> false);
  Alcotest.(check bool) "counted backtracks" true (stats.Atpg.backtracks >= 3)

let test_frames_validation () =
  let c = Helpers.arbiter_design () in
  let bad = Circuit.output c "bad" in
  let view = Sview.whole c ~roots:[ bad ] in
  (try
     ignore (Atpg.solve view ~frames:0 ~pins:[] ());
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ());
  try
    ignore (Atpg.solve view ~frames:2 ~pins:[ (5, bad, true) ] ());
    Alcotest.fail "expected frame range error"
  with Invalid_argument _ -> ()

let test_free_init_explores_states () =
  (* at_limit is reachable in one frame iff the initial state is free *)
  let c = Helpers.counter_design ~width:3 ~limit:5 in
  let bad = Circuit.output c "at_limit" in
  let view = Sview.whole c ~roots:[ bad ] in
  let strict, _ = Atpg.solve view ~frames:1 ~pins:[ (0, bad, true) ] () in
  Alcotest.(check bool) "unreachable from reset" true (strict = Atpg.Unsat);
  let relaxed, _ =
    Atpg.solve ~free_init:true view ~frames:1 ~pins:[ (0, bad, true) ] ()
  in
  match relaxed with
  | Atpg.Sat t ->
    (* the witness state must set the counter to 5 *)
    let st = Trace.state t 0 in
    let cnt_val =
      List.fold_left
        (fun acc i ->
          match Cube.value st (Circuit.find c (Printf.sprintf "cnt_%d" i)) with
          | Some true -> acc lor (1 lsl i)
          | _ -> acc)
        0 [ 0; 1; 2 ]
    in
    Alcotest.(check int) "counter justified to 5" 5 cnt_val
  | _ -> Alcotest.fail "expected Sat with free initial state"

(* ---- SCOAP controllability cache ----------------------------------- *)

let test_scoap_cache () =
  let c = Helpers.counter_design ~width:4 ~limit:9 in
  let bad = Circuit.output c "at_limit" in
  let view = Sview.whole c ~roots:[ bad ] in
  let hits = Telemetry.counter "atpg.scoap_cache_hits" in
  let misses = Telemetry.counter "atpg.scoap_cache_misses" in
  let h0 = Telemetry.counter_value hits
  and m0 = Telemetry.counter_value misses in
  ignore (Atpg.solve view ~frames:2 ~pins:[ (1, bad, true) ] ());
  let m1 = Telemetry.counter_value misses in
  Alcotest.(check bool) "first solve misses the cache" true (m1 > m0);
  ignore (Atpg.solve view ~frames:3 ~pins:[ (2, bad, true) ] ());
  Alcotest.(check bool)
    "same-shape view hits the cache" true
    (Telemetry.counter_value hits > h0);
  Alcotest.(check int)
    "no extra miss for a cached shape" m1
    (Telemetry.counter_value misses)

(* ---- one search path ------------------------------------------------ *)

let test_search_only () =
  (* bad = i0 OR i1: branch-and-backtrace answers it, and a solve runs
     no packed simulation *)
  let b = B.create () in
  let i0 = B.input b "i0" and i1 = B.input b "i1" in
  B.output b "bad" (B.or2 b i0 i1);
  let c = B.finalize b in
  let bad = Circuit.output c "bad" in
  let view = Sview.whole c ~roots:[ bad ] in
  let packed_words = Telemetry.counter "sim.packed_words" in
  let w0 = Telemetry.counter_value packed_words in
  (match Atpg.solve view ~frames:1 ~pins:[ (0, bad, true) ] () with
  | Atpg.Sat t, _ ->
    let assign s = Cube.value (Trace.input t 0) s = Some true in
    let values = Circuit.eval c ~input:assign ~state:assign in
    Alcotest.(check bool) "witness drives bad" true values.(bad)
  | (Atpg.Unsat | Atpg.Abort _), _ ->
    Alcotest.fail "or-of-inputs should be satisfiable");
  Alcotest.(check int)
    "no packed simulation inside a solve" w0
    (Telemetry.counter_value packed_words);
  match
    Atpg.solve view ~frames:1 ~pins:[ (0, i0, true); (0, bad, false) ] ()
  with
  | Atpg.Unsat, _ -> ()
  | _ -> Alcotest.fail "pinned-true input forces bad: must be Unsat"

let tests =
  [
    comb_vs_bdd;
    seq_vs_explicit;
    Alcotest.test_case "scoap cache" `Quick test_scoap_cache;
    Alcotest.test_case "search-only solve" `Quick test_search_only;
    Alcotest.test_case "pins on free inputs" `Quick test_pin_on_free_input;
    Alcotest.test_case "contradictory pins" `Quick test_contradictory_root_pins;
    Alcotest.test_case "frame-0 objectives" `Quick
      test_objective_on_initial_state;
    Alcotest.test_case "backtrack limit" `Quick test_backtrack_limit_aborts;
    Alcotest.test_case "argument validation" `Quick test_frames_validation;
    Alcotest.test_case "free initial state" `Quick test_free_init_explores_states;
  ]

let () = Alcotest.run "atpg" [ ("atpg", tests) ]
