(* Invariant inference (Rfn_analysis): mining + inductive-proving
   units, the wall-clock budget, soundness against brute-force
   reachability, and the merge-equivalences rewrite. *)

open Rfn_circuit
module B = Circuit.Builder
module Analysis = Rfn_analysis.Analysis

(* ------------------------------------------------------------------ *)
(* Hand-built designs                                                  *)
(* ------------------------------------------------------------------ *)

(* Constant chain: r0 <- r1 <- ... <- r_(k-1) <- 0, all init 0. Every
   register is provably stuck at 0; "bad" = r0 & go can never fire. *)
let const_chain_design ~k =
  let b = B.create () in
  let go = B.input b "go" in
  let regs =
    Array.init k (fun i -> B.reg b ~init:`Zero (Printf.sprintf "r%d" i))
  in
  for i = 0 to k - 2 do
    B.connect b regs.(i) regs.(i + 1)
  done;
  B.connect b regs.(k - 1) (B.const b false);
  B.output b "bad" (B.and2 b regs.(0) go);
  B.finalize b

(* Twin registers clocked from the same function: inductively
   equivalent, and rn is their complement. *)
let twin_design () =
  let b = B.create () in
  let i0 = B.input b "i0" in
  let ra = B.reg b ~init:`Zero "ra" in
  let rb = B.reg b ~init:`Zero "rb" in
  let rn = B.reg b ~init:`One "rn" in
  let nxt = B.xor2 b i0 ra in
  B.connect b ra nxt;
  B.connect b rb nxt;
  B.connect b rn (B.not_ b nxt);
  B.output b "both" (B.and2 b ra rb);
  B.output b "neither" (B.and2 b (B.not_ b ra) rn);
  B.finalize b

(* A 3-stage one-hot token ring; "collide" asserts two stages at once
   and is unreachable. *)
let ring_design () =
  let b = B.create () in
  let s0 = B.reg b ~init:`One "s0" in
  let s1 = B.reg b ~init:`Zero "s1" in
  let s2 = B.reg b ~init:`Zero "s2" in
  B.connect b s0 s2;
  B.connect b s1 s0;
  B.connect b s2 s1;
  B.output b "collide"
    (B.or_l b [ B.and2 b s0 s1; B.and2 b s0 s2; B.and2 b s1 s2 ]);
  B.finalize b

(* ------------------------------------------------------------------ *)
(* Mining + proving units                                              *)
(* ------------------------------------------------------------------ *)

let has_const a r v =
  List.exists
    (function
      | Analysis.Const_reg { reg; value } -> reg = r && value = v
      | _ -> false)
    a.Analysis.invariants

let test_const_chain () =
  let c = const_chain_design ~k:4 in
  let a = Analysis.run c in
  Array.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "%s proved stuck at 0" (Circuit.name c r))
        true (has_const a r false))
    c.Circuit.registers;
  Alcotest.(check int)
    "every reported invariant counted as proved"
    (List.length a.Analysis.invariants)
    a.Analysis.stats.Analysis.proved

let test_twin_equiv () =
  let c = twin_design () in
  let a = Analysis.run c in
  let ra = Circuit.find c "ra"
  and rb = Circuit.find c "rb"
  and rn = Circuit.find c "rn" in
  let equiv k d p =
    List.exists
      (function
        | Analysis.Equiv { keep; drop; phase } ->
          keep = k && drop = d && phase = p
        | _ -> false)
      a.Analysis.invariants
  in
  Alcotest.(check bool) "rb equals ra" true (equiv ra rb false);
  Alcotest.(check bool) "rn is the complement of ra" true (equiv ra rn true)

let test_ring_one_hot () =
  let c = ring_design () in
  let a = Analysis.run c in
  let regs = Array.to_list c.Circuit.registers in
  let one_hot =
    List.exists
      (function
        | Analysis.One_hot rs -> List.for_all (fun r -> Array.mem r rs) regs
        | _ -> false)
      a.Analysis.invariants
  in
  Alcotest.(check bool) "the ring is proved one-hot" true one_hot

(* A candidate that simulation proposes but induction cannot prove must
   be dropped: a sticky register is not stuck-at-0 even if short random
   runs never raise it. *)
let test_unproven_dropped () =
  let b = B.create () in
  let i0 = B.input b "i0" in
  let i1 = B.input b "i1" in
  let r0 = B.reg b ~init:`Zero "r0" in
  B.connect b r0 (B.or2 b r0 (B.and2 b i0 i1));
  B.output b "o" r0;
  let c = B.finalize b in
  let a = Analysis.run c in
  Alcotest.(check bool) "sticky r0 not reported constant" false
    (has_const a r0 false);
  Alcotest.(check bool) "r0 certainly not stuck at 1" false
    (has_const a r0 true)

(* The wall-clock budget bounds the induction step too. On the full
   picoJava cluster mining and the base case take well under 0.1 s and
   the unbudgeted induction several seconds, so a 0.5 s budget runs out
   inside induction: the run stops near the budget, and every candidate
   still open is unknown, never proved. On a machine slow enough to
   spend the budget before induction starts, the same assertions hold
   (every survivor is unknown). *)
let test_budget_expires_in_induction () =
  let c = (Rfn_designs.Picojava_iu.make ()).Rfn_designs.Picojava_iu.circuit in
  let budget = 0.5 in
  let a =
    Analysis.run
      ~config:{ Analysis.default_config with max_seconds = Some budget }
      c
  in
  let st = a.Analysis.stats in
  Alcotest.(check bool)
    (Printf.sprintf "stops near the budget (%.2fs for %.2fs)" a.Analysis.seconds
       budget)
    true
    (a.Analysis.seconds < budget +. 2.5);
  Alcotest.(check bool)
    (Printf.sprintf "open candidates are unknown (%d)" st.Analysis.unknown)
    true (st.Analysis.unknown > 0);
  Alcotest.(check int) "nothing is proved" 0 st.Analysis.proved;
  Alcotest.(check int) "no invariant reported" 0
    (List.length a.Analysis.invariants);
  Alcotest.(check int) "every candidate accounted for" st.Analysis.candidates
    (st.Analysis.proved + st.Analysis.refuted + st.Analysis.unknown)

(* ------------------------------------------------------------------ *)
(* Soundness: every reported invariant holds in every reachable state  *)
(* ------------------------------------------------------------------ *)

let check_sound name circuit =
  let a = Analysis.run circuit in
  let reachable = Helpers.explicit_reachable circuit in
  let regs = circuit.Circuit.registers in
  let inputs = circuit.Circuit.inputs in
  let nins = Array.length inputs in
  Hashtbl.iter
    (fun code () ->
      let state r =
        let rec idx i = if regs.(i) = r then i else idx (i + 1) in
        code land (1 lsl idx 0) <> 0
      in
      for iv = 0 to (1 lsl nins) - 1 do
        let input s =
          let rec idx i = if inputs.(i) = s then i else idx (i + 1) in
          iv land (1 lsl idx 0) <> 0
        in
        let values = Circuit.eval circuit ~input ~state in
        if not (Analysis.holds a ~state ~values:(fun s -> values.(s))) then
          Alcotest.failf
            "%s: an invariant is violated in reachable state %d (inputs %d)"
            name code iv
      done)
    reachable;
  a

let test_soundness_zoo () =
  List.iter
    (fun (name, c) -> ignore (check_sound name c))
    [
      ("const_chain", const_chain_design ~k:4);
      ("twin", twin_design ());
      ("ring", ring_design ());
      ("arbiter", Helpers.arbiter_design ());
      ("counter3", Helpers.counter_design ~width:3 ~limit:7);
      ("deep_bug2", Helpers.deep_bug_design ~width:2);
    ]

let qcheck_soundness =
  QCheck.Test.make ~count:40
    ~name:"analysis invariants hold on all reachable states"
    (Helpers.arbitrary_circuit ~nins:3 ~nregs:4 ~ngates:10)
    (fun rc ->
      ignore (check_sound "random" rc.Helpers.circuit);
      true)

(* ------------------------------------------------------------------ *)
(* merge_equivalences                                                  *)
(* ------------------------------------------------------------------ *)

(* Drive both circuits from their initial states with the same
   (deterministic pseudo-random) stimuli and compare every declared
   output cycle by cycle. Inputs are matched by name: the merge
   renumbers signals but never deletes a primary input. *)
let outputs_agree c c' ~cycles ~seed =
  let names = List.map fst c.Circuit.outputs in
  let rand = ref (seed lor 1) in
  let next_bit () =
    rand := ((!rand * 1103515245) + 12345) land 0x3FFFFFFF;
    !rand land 0x10000 <> 0
  in
  let state0 circuit r =
    match Circuit.node circuit r with
    | Circuit.Reg { init = `One; _ } -> true
    | _ -> false
  in
  let input_names = Array.map (Circuit.name c) c.Circuit.inputs in
  let rec go cycle st0 st0' =
    if cycle >= cycles then true
    else begin
      let stim = Hashtbl.create 7 in
      Array.iter (fun n -> Hashtbl.replace stim n (next_bit ())) input_names;
      let input circuit s =
        match Hashtbl.find_opt stim (Circuit.name circuit s) with
        | Some v -> v
        | None -> false
      in
      let values, next = Circuit.step c ~input:(input c) ~state:st0 in
      let values', next' = Circuit.step c' ~input:(input c') ~state:st0' in
      List.for_all
        (fun n -> values.(Circuit.output c n) = values'.(Circuit.output c' n))
        names
      && go (cycle + 1) next next'
    end
  in
  go 0 (state0 c) (state0 c')

let qcheck_merge_preserves_outputs =
  QCheck.Test.make ~count:40
    ~name:"merge_equivalences preserves observable behaviour"
    (Helpers.arbitrary_circuit ~nins:3 ~nregs:4 ~ngates:12)
    (fun rc ->
      let c = rc.Helpers.circuit in
      let a = Analysis.run c in
      let c', _, _ = Opt.merge_equivalences c (Analysis.equiv_pairs a) in
      List.for_all (fun seed -> outputs_agree c c' ~cycles:16 ~seed) [ 1; 2; 3 ])

let test_merge_twin () =
  let c = twin_design () in
  let a = Analysis.run c in
  let c', lookup, applied = Opt.merge_equivalences c (Analysis.equiv_pairs a) in
  Alcotest.(check bool) "merged at least rb and rn" true (applied >= 2);
  Alcotest.(check bool)
    "fewer registers after the merge" true
    (Array.length c'.Circuit.registers < Array.length c.Circuit.registers);
  let rb = Circuit.find c "rb" in
  Alcotest.(check bool) "rb is gone from the signal map" true
    (lookup rb = None);
  Alcotest.(check bool)
    "twin outputs agree over 64 random cycles" true
    (outputs_agree c c' ~cycles:64 ~seed:7)

(* ------------------------------------------------------------------ *)
(* Consumers never see refuted candidates                              *)
(* ------------------------------------------------------------------ *)

let test_consumers_see_proved_only () =
  List.iter
    (fun (name, c) ->
      let a = Analysis.run c in
      let proved = a.Analysis.invariants in
      Alcotest.(check int)
        (name ^ ": stats.proved equals the reported invariants")
        (List.length proved) a.Analysis.stats.Analysis.proved;
      Alcotest.(check int)
        (name ^ ": equiv_pairs come from the proved Equivs only")
        (List.length
           (List.filter
              (function Analysis.Equiv _ -> true | _ -> false)
              proved))
        (List.length (Analysis.equiv_pairs a));
      List.iter
        (fun inv ->
          Alcotest.(check bool)
            (name ^ ": clause literals stay within the invariant's signals")
            true
            (List.for_all
               (fun cls ->
                 cls <> []
                 && List.for_all
                      (fun (s, _) -> List.mem s (Analysis.signals_of inv))
                      cls)
               (Analysis.clauses_of inv)))
        proved)
    [
      ("counter", Helpers.counter_design ~width:3 ~limit:7);
      ("arbiter", Helpers.arbiter_design ());
      ( "fifo",
        (Rfn_designs.Fifo.(make ~params:small ())).Rfn_designs.Fifo.circuit );
    ]

let tests =
  [
    Alcotest.test_case "constant chain proved" `Quick test_const_chain;
    Alcotest.test_case "twin equivalences proved" `Quick test_twin_equiv;
    Alcotest.test_case "token ring one-hot" `Quick test_ring_one_hot;
    Alcotest.test_case "non-inductive candidate dropped" `Quick
      test_unproven_dropped;
    Alcotest.test_case "budget expires inside induction" `Quick
      test_budget_expires_in_induction;
    Alcotest.test_case "soundness on the zoo" `Quick test_soundness_zoo;
    QCheck_alcotest.to_alcotest qcheck_soundness;
    QCheck_alcotest.to_alcotest qcheck_merge_preserves_outputs;
    Alcotest.test_case "merge on the twin design" `Quick test_merge_twin;
    Alcotest.test_case "consumers see proved facts only" `Quick
      test_consumers_see_proved_only;
  ]

let () = Alcotest.run "analysis" [ ("analysis", tests) ]
