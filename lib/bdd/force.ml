let span ~pos ~edges =
  List.fold_left
    (fun acc edge ->
      match edge with
      | [] | [ _ ] -> acc
      | v0 :: rest ->
        let mn, mx =
          List.fold_left
            (fun (mn, mx) v -> (min mn pos.(v), max mx pos.(v)))
            (pos.(v0), pos.(v0))
            rest
        in
        acc + (mx - mn))
    0 edges

let order ?(iterations = 30) ~nvars ~edges () =
  let edges = List.filter (fun e -> List.length e > 1) edges in
  let pos = Array.init nvars (fun i -> i) in
  if edges = [] || nvars = 0 then pos
  else begin
    let best = Array.copy pos in
    let best_span = ref (span ~pos ~edges) in
    let continue_ = ref true in
    let iter = ref 0 in
    while !continue_ && !iter < iterations do
      incr iter;
      (* Center of gravity of each edge under the current positions. *)
      let sum = Array.make nvars 0.0 and cnt = Array.make nvars 0 in
      List.iter
        (fun edge ->
          let cog =
            List.fold_left (fun a v -> a +. float_of_int pos.(v)) 0.0 edge
            /. float_of_int (List.length edge)
          in
          List.iter
            (fun v ->
              sum.(v) <- sum.(v) +. cog;
              cnt.(v) <- cnt.(v) + 1)
            edge)
        edges;
      (* New position of a vertex: mean of its edges' centers; isolated
         vertices keep their position (stable sort sends them last
         among ties). *)
      let weight v =
        if cnt.(v) = 0 then float_of_int pos.(v)
        else sum.(v) /. float_of_int cnt.(v)
      in
      let by_weight = Array.init nvars (fun v -> v) in
      Array.sort
        (fun a b ->
          let c = compare (weight a) (weight b) in
          if c <> 0 then c else compare pos.(a) pos.(b))
        by_weight;
      Array.iteri (fun level v -> pos.(v) <- level) by_weight;
      let s = span ~pos ~edges in
      if s < !best_span then begin
        best_span := s;
        Array.blit pos 0 best 0 nvars
      end
      else continue_ := false
    done;
    best
  end
