(* Tests for the extension modules: probabilistic mixing and the
   surface-code resource estimator. *)

let mixing_tests =
  [
    Alcotest.test_case "mixture never beats nothing: norm <= deterministic" `Quick (fun () ->
        let rng = Random.State.make [| 17 |] in
        for _ = 1 to 3 do
          let target = Mat2.random_unitary rng in
          let m = Mixing.synthesize ~pool:4 ~target ~budgets:[ 6 ] () in
          Alcotest.(check bool) "no regression" true
            (m.Mixing.norm_distance <= m.Mixing.deterministic_norm_distance +. 1e-12);
          Alcotest.(check bool) "p in range" true (m.Mixing.p >= 0.0 && m.Mixing.p <= 1.0)
        done);
    Alcotest.test_case "hand-built opposing errors cancel to second order" `Quick (fun () ->
        (* V± = U·Rz(±δ): mixing at p = 1/2 kills the first-order term. *)
        let target = Mat2.u3 0.9 0.3 (-0.5) in
        let delta = 0.02 in
        let v1 = Mat2.mul target (Mat2.rz delta) in
        let v2 = Mat2.mul target (Mat2.rz (-.delta)) in
        let single = Mixing.mixed_norm_distance ~target 1.0 v1 v1 in
        let mixed = Mixing.mixed_norm_distance ~target 0.5 v1 v2 in
        Alcotest.(check bool)
          (Printf.sprintf "quadratic: %.2e vs %.2e" mixed single)
          true
          (mixed < 0.1 *. single));
    Alcotest.test_case "norm distance scales linearly, infidelity quadratically" `Quick (fun () ->
        let target = Mat2.identity in
        let at delta = Mixing.mixed_norm_distance ~target 1.0 (Mat2.rz delta) (Mat2.rz delta) in
        let infid_at delta = Mixing.mixed_infidelity ~target 1.0 (Mat2.rz delta) (Mat2.rz delta) in
        let r_norm = at 0.02 /. at 0.01 in
        let r_infid = infid_at 0.02 /. infid_at 0.01 in
        Alcotest.(check bool) (Printf.sprintf "norm ratio %.2f ~ 2" r_norm) true
          (Float.abs (r_norm -. 2.0) < 0.05);
        Alcotest.(check bool) (Printf.sprintf "infid ratio %.2f ~ 4" r_infid) true
          (Float.abs (r_infid -. 4.0) < 0.2));
  ]

let resource_tests =
  [
    Alcotest.test_case "logical error rate falls with distance" `Quick (fun () ->
        let p3 = Surface_code.logical_error_per_cycle ~p_phys:1e-3 3 in
        let p7 = Surface_code.logical_error_per_cycle ~p_phys:1e-3 7 in
        let p11 = Surface_code.logical_error_per_cycle ~p_phys:1e-3 11 in
        Alcotest.(check bool) "monotone" true (p3 > p7 && p7 > p11));
    Alcotest.test_case "estimate meets the failure budget" `Quick (fun () ->
        let c = Generators.qaoa ~seed:3 ~n:8 ~depth:2 in
        let s = Test_pipeline.run (Stream_compile.config ~epsilon:0.05 ~jobs:Test_pipeline.jobs ()) c in
        let e = Surface_code.estimate s.Pipeline.circuit in
        Alcotest.(check bool) "budget" true
          (e.Surface_code.logical_error_total
          <= Surface_code.default_params.Surface_code.target_failure);
        Alcotest.(check bool) "odd distance" true (e.Surface_code.distance land 1 = 1);
        Alcotest.(check bool) "has magic states" true (e.Surface_code.magic_states > 0));
    Alcotest.test_case "more T gates cannot run faster" `Quick (fun () ->
        let mk t_layers =
          Circuit.make 2
            (List.concat
               (List.init t_layers (fun _ ->
                    [ Circuit.instr Qgate.T [| 0 |]; Circuit.instr Qgate.CX [| 0; 1 |] ])))
        in
        let small = Surface_code.estimate (mk 10) in
        let large = Surface_code.estimate (mk 100) in
        Alcotest.(check bool) "runtime monotone" true
          (large.Surface_code.runtime_s >= small.Surface_code.runtime_s));
    Alcotest.test_case "fewer factories means slower when factory limited" `Quick (fun () ->
        let c =
          Circuit.make 1 (List.init 200 (fun _ -> Circuit.instr Qgate.T [| 0 |]))
        in
        let fast =
          Surface_code.estimate
            ~params:{ Surface_code.default_params with Surface_code.factories = 8 } c
        in
        let slow =
          Surface_code.estimate
            ~params:{ Surface_code.default_params with Surface_code.factories = 1 } c
        in
        Alcotest.(check bool) "throughput effect" true
          (slow.Surface_code.runtime_s > fast.Surface_code.runtime_s);
        Alcotest.(check bool) "flagged" true slow.Surface_code.factory_limited);
    Alcotest.test_case "worse physical error raises the distance" `Quick (fun () ->
        let c = Generators.qft 4 in
        let s = Test_pipeline.run (Stream_compile.config ~epsilon:0.05 ~jobs:Test_pipeline.jobs ()) c in
        let good =
          Surface_code.estimate
            ~params:{ Surface_code.default_params with Surface_code.p_phys = 1e-4 }
            s.Pipeline.circuit
        in
        let bad =
          Surface_code.estimate
            ~params:{ Surface_code.default_params with Surface_code.p_phys = 2e-3 }
            s.Pipeline.circuit
        in
        Alcotest.(check bool) "distance grows" true
          (bad.Surface_code.distance > good.Surface_code.distance));
  ]

let suite = mixing_tests @ resource_tests
