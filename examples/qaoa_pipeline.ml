(* QAOA end-to-end: build a 3-regular MaxCut QAOA circuit with the
   merge-maximizing gate ordering of §3.4, compile it through both
   workflows (U3-IR + TRASYN vs Rz-IR + GRIDSYNTH), and compare the
   fault-tolerant resource bill and the resulting state fidelity.

   Run with:  dune exec examples/qaoa_pipeline.exe *)

let () =
  let n = 8 and depth = 2 in
  let circuit = Generators.qaoa ~seed:11 ~n ~depth in
  Printf.printf "QAOA MaxCut: %d qubits, depth %d, %d gates, %d nontrivial rotations\n\n" n depth
    (Circuit.length circuit)
    (Circuit.nontrivial_rotation_count circuit);

  let cfg = Stream_compile.config ~epsilon:0.07 ~jobs:(Domain.recommended_domain_count ()) () in
  let cmp = Pipeline.compare_workflows cfg ~name:"qaoa" circuit in
  let show label (s : Pipeline.synthesized) =
    Printf.printf "%-22s setting=%-8s rotations=%3d  T=%4d  Tdepth=%4d  Cliffords=%4d\n" label
      (Settings.setting_to_string s.Pipeline.setting)
      s.Pipeline.rotations_synthesized
      (Circuit.t_count s.Pipeline.circuit)
      (Circuit.t_depth s.Pipeline.circuit)
      (Circuit.clifford_count s.Pipeline.circuit)
  in
  show "Rz IR + GRIDSYNTH" cmp.Pipeline.gridsynth;
  show "U3 IR + TRASYN" cmp.Pipeline.trasyn;
  Printf.printf "\nReductions: T %.2fx, T-depth %.2fx, Cliffords %.2fx\n" cmp.Pipeline.t_ratio
    cmp.Pipeline.t_depth_ratio cmp.Pipeline.clifford_ratio;

  (* Verify both compiled circuits still prepare (almost) the QAOA state. *)
  let ideal = State.run circuit in
  let fid c = State.fidelity ideal (State.run c) in
  Printf.printf "\nState fidelity vs ideal: gridsynth %.5f, trasyn %.5f\n"
    (fid cmp.Pipeline.gridsynth.Pipeline.circuit)
    (fid cmp.Pipeline.trasyn.Pipeline.circuit);

  (* And under a logical error rate of 1e-4, fewer gates means higher
     fidelity (the RQ3 effect). *)
  let model = Noise.non_pauli_model 1e-4 in
  let noisy c = 1.0 -. Noise.infidelity ~trajectories:100 ~model ~reference:circuit c in
  Printf.printf "Fidelity at logical rate 1e-4: gridsynth %.4f, trasyn %.4f\n"
    (noisy cmp.Pipeline.gridsynth.Pipeline.circuit)
    (noisy cmp.Pipeline.trasyn.Pipeline.circuit)
