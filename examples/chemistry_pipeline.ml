(* Quantum-chemistry-style pipeline: Trotterized evolution under a
   molecular-flavoured Hamiltonian, compiled by the Pauli-evolution
   compiler, both synthesis workflows, and the phase-folding T optimizer
   as the final pass — the full workflow recommended in the paper's
   related-work section: (1) reduce rotations, (2) synthesize, (3) run a
   T-count optimizer.

   Run with:  dune exec examples/chemistry_pipeline.exe *)

let () =
  let n = 6 in
  let circuit = Generators.molecular_evolution ~seed:8 ~n ~steps:1 in
  Printf.printf "Hamiltonian simulation: %d qubits, %d gates, %d rotations\n\n" n
    (Circuit.length circuit) (Circuit.rotation_count circuit);

  let cfg = Stream_compile.config ~epsilon:0.05 ~jobs:(Domain.recommended_domain_count ()) () in
  let cmp = Pipeline.compare_workflows cfg ~name:"molecule" circuit in
  let tr = cmp.Pipeline.trasyn.Pipeline.circuit in
  let gs = cmp.Pipeline.gridsynth.Pipeline.circuit in
  Printf.printf "After synthesis:     GRIDSYNTH T=%4d C=%4d | TRASYN T=%4d C=%4d\n"
    (Circuit.t_count gs) (Circuit.clifford_count gs) (Circuit.t_count tr)
    (Circuit.clifford_count tr);

  (* Step 3 of the recommended workflow: a post-synthesis T optimizer. *)
  let opt c = Cnot_resynth.run (Phase_folding.run c) in
  let tr' = opt tr and gs' = opt gs in
  Printf.printf "After phase folding: GRIDSYNTH T=%4d C=%4d | TRASYN T=%4d C=%4d\n"
    (Circuit.t_count gs') (Circuit.clifford_count gs') (Circuit.t_count tr')
    (Circuit.clifford_count tr');
  Printf.printf "\nT advantage before folding: %.2fx — after folding: %.2fx\n"
    (float_of_int (Circuit.t_count gs) /. float_of_int (Circuit.t_count tr))
    (float_of_int (Circuit.t_count gs') /. float_of_int (Circuit.t_count tr'));

  let ideal = State.run circuit in
  Printf.printf "\nFidelity of folded TRASYN circuit vs ideal evolution: %.5f\n"
    (State.fidelity ideal (State.run tr'))
