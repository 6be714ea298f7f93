(* Resource estimation: what the T-count reduction buys on a surface
   code.  Compiles a Hamiltonian-simulation benchmark through both
   workflows and prices each output in physical qubits and wall-clock
   on an early fault-tolerant machine.

   Run with:  dune exec examples/resource_estimate.exe *)

let () =
  let c = Generators.heisenberg_evolution ~seed:5 ~n:8 ~steps:1 in
  Printf.printf "Heisenberg chain evolution: %d qubits, %d rotations\n\n" c.Circuit.n_qubits
    (Circuit.nontrivial_rotation_count c);
  let cfg = Stream_compile.config ~epsilon:0.05 ~jobs:(Domain.recommended_domain_count ()) () in
  let cmp = Pipeline.compare_workflows cfg ~name:"heis" c in
  let price label circuit =
    let e = Surface_code.estimate circuit in
    Format.printf "%-22s T=%5d  %a@." label (Circuit.t_count circuit) Surface_code.pp e;
    e
  in
  let e_gs = price "Rz IR + GRIDSYNTH" cmp.Pipeline.gridsynth.Pipeline.circuit in
  let e_tr = price "U3 IR + TRASYN" cmp.Pipeline.trasyn.Pipeline.circuit in
  let rt, pq = Surface_code.compare_estimates e_gs e_tr in
  Printf.printf "\nTRASYN compilation runs %.2fx faster on %.2fx the qubits (ratio gs/trasyn).\n" rt pq;

  (* The probabilistic-mixing extension: quadratic error suppression on
     one of the circuit's rotations, for free. *)
  let target = Mat2.u3 0.7 0.2 (-1.1) in
  let m = Mixing.synthesize ~pool:8 ~target ~budgets:[ 8; 8 ] () in
  Printf.printf
    "\nMixing extension on one U3: deterministic error %.3e -> mixed %.3e (p = %.2f)\n"
    m.Mixing.deterministic_norm_distance m.Mixing.norm_distance m.Mixing.p
