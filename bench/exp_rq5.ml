(** RQ5 / Figure 12: the logical-vs-synthesis error tradeoff.

    Random Rz gates are synthesized with GRIDSYNTH across synthesis
    thresholds 1e-1..1e-5; each word is evaluated as an exact 1-qubit
    channel with depolarizing noise on T gates only (the paper's most
    conservative model), and the process infidelity against the ideal
    rotation is reported.  For each logical rate the optimal threshold
    is located, and the optimal-threshold-vs-rate relation is fitted in
    log-log space (the paper finds a square-root law, slope ≈ 0.5). *)

let thresholds = [ 1e-1; 3e-2; 1e-2; 3e-3; 1e-3; 3e-4; 1e-4; 3e-5; 1e-5 ]
let logical_rates = [ 1e-3; 1e-4; 1e-5; 1e-6; 1e-7 ]

let run ~rotations () =
  Util.header (Printf.sprintf "FIG 12 — synthesis vs logical error tradeoff (%d random Rz)" rotations);
  let rng = Random.State.make [| 5150 |] in
  let angles = List.init rotations (fun _ -> Random.State.float rng (2.0 *. Float.pi) -. Float.pi) in
  (* Synthesize each angle at each threshold once. *)
  let rz_word theta eps =
    let cfg = Synth.config ~epsilon:eps () in
    match (Synth.find_exn "gridsynth").synthesize (Synth.Rz theta) cfg with
    | Ok (seq, _) -> seq
    | Error f -> Robust.fail f
  in
  let words =
    List.map (fun theta -> (theta, List.map (fun eps -> (eps, rz_word theta eps)) thresholds)) angles
  in
  (* Mean process infidelity per (threshold, logical rate). *)
  let table =
    List.map
      (fun eps ->
        let per_rate =
          List.map
            (fun rate ->
              let infids =
                List.map
                  (fun (theta, per_eps) ->
                    let seq = List.assoc eps per_eps in
                    let ideal = Ptm.of_mat2 (Mat2.rz theta) in
                    let noisy = Ptm.of_ctseq ~noise:rate seq in
                    1.0 -. Ptm.process_fidelity ideal noisy)
                  words
              in
              (rate, Util.mean infids))
            logical_rates
        in
        (eps, per_rate))
      thresholds
  in
  Printf.printf "\n--- fig12a rows: process infidelity ---\n";
  Printf.printf "%-10s" "threshold";
  List.iter (fun r -> Printf.printf " rate=%-9.0e" r) logical_rates;
  print_newline ();
  List.iter
    (fun (eps, per_rate) ->
      Printf.printf "fig12a %-7.0e" eps;
      List.iter (fun (_, infid) -> Printf.printf " %-14.3e" infid) per_rate;
      print_newline ())
    table;
  (* Optimal threshold per rate + square-root fit. *)
  Printf.printf "\n--- fig12b: optimal synthesis threshold per logical rate ---\n";
  let optima =
    List.map
      (fun rate ->
        let best =
          List.fold_left
            (fun (be, bi) (eps, per_rate) ->
              let infid = List.assoc rate per_rate in
              if infid < bi then (eps, infid) else (be, bi))
            (nan, infinity) table
        in
        Printf.printf "fig12b rate=%.0e optimal_eps=%.0e infidelity=%.3e\n" rate (fst best) (snd best);
        (rate, fst best))
      logical_rates
  in
  let xs = List.map (fun (r, _) -> Float.log10 r) optima in
  let ys = List.map (fun (_, e) -> Float.log10 e) optima in
  let slope, intercept = Util.linear_fit xs ys in
  Printf.printf "fig12b-fit log10(eps*) = %.3f * log10(rate) + %.3f  (paper: slope ~ 0.5)\n" slope
    intercept
