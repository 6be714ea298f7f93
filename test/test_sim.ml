(* Tests for the simulation substrate: statevector, full unitaries,
   Pauli transfer matrices, and the depolarizing trajectory model. *)

let rng = Random.State.make [| 4242 |]

let state_tests =
  [
    Alcotest.test_case "bell state amplitudes" `Quick (fun () ->
        let c = Circuit.of_list 2 [ (Qgate.H, [ 0 ]); (Qgate.CX, [ 0; 1 ]) ] in
        let s = State.run c in
        let a0 = State.amplitude s 0 and a3 = State.amplitude s 3 in
        let inv = 1.0 /. Float.sqrt 2.0 in
        Alcotest.(check (float 1e-12)) "|00>" inv a0.Cplx.re;
        Alcotest.(check (float 1e-12)) "|11>" inv a3.Cplx.re;
        Alcotest.(check (float 1e-12)) "|01|" 0.0 (Cplx.norm (State.amplitude s 1)));
    Alcotest.test_case "ghz fidelity with itself" `Quick (fun () ->
        let instrs = (Qgate.H, [ 0 ]) :: List.init 5 (fun i -> (Qgate.CX, [ i; i + 1 ])) in
        let c = Circuit.of_list 6 instrs in
        Alcotest.(check (float 1e-12)) "F=1" 1.0 (State.fidelity (State.run c) (State.run c)));
    Alcotest.test_case "norm is preserved" `Quick (fun () ->
        let c = Generators.qaoa ~seed:1 ~n:6 ~depth:2 in
        let s = State.run c in
        Alcotest.(check (float 1e-9)) "norm" 1.0 (State.norm2 s));
    Alcotest.test_case "cz equals lowered cz" `Quick (fun () ->
        let direct = Circuit.of_list 2 [ (Qgate.H, [ 0 ]); (Qgate.H, [ 1 ]); (Qgate.CZ, [ 0; 1 ]) ] in
        let lowered = Basis.lower direct in
        Alcotest.(check (float 1e-12)) "same state" 1.0
          (State.fidelity (State.run direct) (State.run lowered)));
    Alcotest.test_case "w state has uniform single-excitation weights" `Quick (fun () ->
        let n = 4 in
        let s = State.run (Generators.w_state n) in
        for k = 0 to n - 1 do
          let idx = 1 lsl k in
          Alcotest.(check (float 1e-9))
            (Printf.sprintf "|%d|^2" idx)
            (1.0 /. float_of_int n)
            (Cplx.abs2 (State.amplitude s idx))
        done);
    Alcotest.test_case "qft of |0...0> is uniform" `Quick (fun () ->
        let n = 4 in
        let s = State.run (Generators.qft n) in
        let d = 1 lsl n in
        for i = 0 to d - 1 do
          Alcotest.(check (float 1e-9)) "uniform" (1.0 /. float_of_int d)
            (Cplx.abs2 (State.amplitude s i))
        done);
  ]

let unitary_tests =
  [
    Alcotest.test_case "circuit unitary of H⊗I" `Quick (fun () ->
        let c = Circuit.of_list 2 [ (Qgate.H, [ 1 ]) ] in
        let u = Unitary.of_circuit c in
        let expected = Cmatrix.kron (Cmatrix.of_mat2 Mat2.h) (Cmatrix.identity 2) in
        Alcotest.(check bool) "H on qubit 1 (high bit)" true (Cmatrix.is_close u expected));
    Alcotest.test_case "unitary distance detects equivalence up to phase" `Quick (fun () ->
        let c1 = Circuit.of_list 1 [ (Qgate.T, [ 0 ]); (Qgate.T, [ 0 ]) ] in
        let c2 = Circuit.of_list 1 [ (Qgate.S, [ 0 ]) ] in
        Alcotest.(check (float 1e-9)) "T^2 = S" 0.0 (Unitary.distance c1 c2));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:20 ~name:"circuit unitaries are unitary" QCheck2.Gen.unit
         (fun () ->
           let c = Generators.quantum_volume ~seed:(Random.State.int rng 1000) ~n:3 ~depth:2 in
           let u = Unitary.of_circuit c in
           let prod = Cmatrix.mul (Cmatrix.adjoint u) u in
           Cmatrix.is_close ~tol:1e-8 prod (Cmatrix.identity 8)));
  ]

let ptm_tests =
  [
    Alcotest.test_case "PTM of identity is identity" `Quick (fun () ->
        let r = Ptm.of_mat2 Mat2.identity in
        Alcotest.(check (float 1e-12)) "fidelity" 1.0 (Ptm.process_fidelity r (Ptm.identity ())));
    Alcotest.test_case "PTM multiplicativity" `Quick (fun () ->
        let a = Mat2.random_unitary rng and b = Mat2.random_unitary rng in
        let lhs = Ptm.of_mat2 (Mat2.mul a b) in
        let rhs = Ptm.compose (Ptm.of_mat2 a) (Ptm.of_mat2 b) in
        Alcotest.(check (float 1e-9)) "compose" 1.0 (Ptm.process_fidelity lhs rhs));
    Alcotest.test_case "process fidelity of depolarizing" `Quick (fun () ->
        (* F_pro(D_p, I) = (1 + 3(1−p))/4 *)
        let p = 0.12 in
        let f = Ptm.process_fidelity (Ptm.depolarizing p) (Ptm.identity ()) in
        Alcotest.(check (float 1e-12)) "analytic" ((1.0 +. (3.0 *. (1.0 -. p))) /. 4.0) f);
    Alcotest.test_case "noiseless word PTM matches its unitary" `Quick (fun () ->
        let seq = Ctgate.[ H; T; S; H; T; X ] in
        let direct = Ptm.of_mat2 (Ctgate.seq_to_mat2 seq) in
        let via_seq = Ptm.of_ctseq ~noise:0.0 seq in
        Alcotest.(check (float 1e-9)) "match" 1.0 (Ptm.process_fidelity direct via_seq));
    Alcotest.test_case "noise lowers process fidelity monotonically" `Quick (fun () ->
        let seq = (Gridsynth.rz ~theta:0.61 ~epsilon:1e-3 ()).Gridsynth.seq in
        let ideal = Ptm.of_mat2 (Mat2.rz 0.61) in
        let f_at noise = Ptm.process_fidelity ideal (Ptm.of_ctseq ~noise seq) in
        let f0 = f_at 0.0 and f1 = f_at 1e-4 and f2 = f_at 1e-3 in
        Alcotest.(check bool) "f0 close to 1" true (f0 > 0.999);
        Alcotest.(check bool) "monotone" true (f0 > f1 && f1 > f2));
  ]

let noise_tests =
  [
    Alcotest.test_case "zero rate reproduces the ideal state" `Quick (fun () ->
        let c = Generators.qaoa ~seed:2 ~n:4 ~depth:1 in
        let model = Noise.non_pauli_model 0.0 in
        let infid = Noise.infidelity ~trajectories:5 ~model ~reference:c c in
        Alcotest.(check (float 1e-9)) "no noise" 0.0 infid);
    Alcotest.test_case "infidelity grows with rate" `Quick (fun () ->
        let c = Generators.qft 4 in
        let infid rate =
          Noise.infidelity ~trajectories:200 ~seed:7 ~model:(Noise.non_pauli_model rate)
            ~reference:c c
        in
        let i1 = infid 1e-3 and i2 = infid 1e-2 in
        Alcotest.(check bool) (Printf.sprintf "%.4f < %.4f" i1 i2) true (i1 < i2));
    Alcotest.test_case "trajectory mean approximates the analytic 1q channel" `Quick (fun () ->
        (* One T gate with depolarizing p: survival of |+> under the
           twirled channel can be computed from the PTM. *)
        let p = 0.3 in
        let c = Circuit.of_list 1 [ (Qgate.H, [ 0 ]); (Qgate.T, [ 0 ]) ] in
        let model = Noise.t_only_model p in
        let ideal = State.run c in
        let f = Noise.fidelity_vs ~trajectories:4000 ~seed:11 ~model ~ideal c in
        (* E F = 1 − 3p/4 · E[1 − |<ψ|P|ψ>|²] ; for |ψ> = T H |0>,
           |<ψ|X|ψ>|² = 1/2, |<ψ|Y|ψ>|² = 1/2, |<ψ|Z|ψ>|² = 0. *)
        let expected = 1.0 -. (0.75 *. p *. (1.0 -. ((0.5 +. 0.5 +. 0.0) /. 3.0))) in
        Alcotest.(check bool)
          (Printf.sprintf "got %.4f want %.4f" f expected)
          true
          (Float.abs (f -. expected) < 0.02));
  ]

let suite = state_tests @ unitary_tests @ ptm_tests @ noise_tests
