(* Edge cases and failure-injection tests across the stack. *)

let edge_bigint =
  [
    Alcotest.test_case "division by zero raises" `Quick (fun () ->
        Alcotest.check_raises "divmod" Division_by_zero (fun () ->
            ignore (Bigint.divmod Bigint.one Bigint.zero)));
    Alcotest.test_case "negative exponent rejected" `Quick (fun () ->
        Alcotest.check_raises "pow" (Invalid_argument "Bigint.pow: negative exponent") (fun () ->
            ignore (Bigint.pow Bigint.two (-1)));
        Alcotest.check_raises "sqrt" (Invalid_argument "Bigint.sqrt: negative") (fun () ->
            ignore (Bigint.sqrt Bigint.minus_one)));
    Alcotest.test_case "to_int_exn overflow raises" `Quick (fun () ->
        Alcotest.check_raises "overflow" (Failure "Bigint.to_int_exn: overflow") (fun () ->
            ignore (Bigint.to_int_exn (Bigint.pow Bigint.two 100))));
    Alcotest.test_case "of_string rejects junk" `Quick (fun () ->
        List.iter
          (fun s ->
            match Bigint.of_string s with
            | exception Invalid_argument _ -> ()
            | _ -> Alcotest.fail ("accepted " ^ s))
          [ ""; "abc"; "12x3"; "-" ]);
  ]

let edge_rings =
  [
    Alcotest.test_case "ring division by zero raises" `Quick (fun () ->
        Alcotest.check_raises "zroot2" Division_by_zero (fun () ->
            ignore (Zroot2.Native.divmod Zroot2.Native.one Zroot2.Native.zero));
        Alcotest.check_raises "zomega" Division_by_zero (fun () ->
            ignore (Zomega.Native.divmod Zomega.Native.one Zomega.Native.zero)));
    Alcotest.test_case "div_sqrt2 on odd element is None" `Quick (fun () ->
        Alcotest.(check bool) "1 not divisible" true
          (Zomega.Native.div_sqrt2_opt Zomega.Native.one = None));
  ]

let edge_gridsynth =
  [
    Alcotest.test_case "rz at theta = 0 costs almost nothing" `Quick (fun () ->
        let r = Gridsynth.rz ~theta:0.0 ~epsilon:0.01 () in
        Alcotest.(check bool)
          (Printf.sprintf "T=%d" r.Gridsynth.t_count)
          true (r.Gridsynth.t_count <= 2 && r.Gridsynth.distance <= 0.01));
    Alcotest.test_case "rz near ±π works" `Quick (fun () ->
        List.iter
          (fun theta ->
            let r = Gridsynth.rz ~theta ~epsilon:0.01 () in
            Alcotest.(check bool) "meets eps" true (r.Gridsynth.distance <= 0.01))
          [ Float.pi -. 1e-4; -.Float.pi +. 1e-4 ]);
    Alcotest.test_case "large angles wrap" `Quick (fun () ->
        let r = Gridsynth.rz ~theta:(7.0 *. Float.pi +. 0.3) ~epsilon:0.02 () in
        Alcotest.(check bool) "meets eps" true (r.Gridsynth.distance <= 0.02));
  ]

let edge_trasyn =
  [
    Alcotest.test_case "empty budget list rejected" `Quick (fun () ->
        Alcotest.check_raises "empty" (Invalid_argument "Trasyn.synthesize: empty budget list")
          (fun () -> ignore (Trasyn.synthesize ~target:Mat2.h ~budgets:[] ())));
    Alcotest.test_case "Clifford-only site hits Clifford targets exactly" `Quick (fun () ->
        let r = Trasyn.synthesize ~target:Mat2.h ~budgets:[ 0 ] () in
        Alcotest.(check int) "no T" 0 r.Trasyn.t_count;
        Alcotest.(check bool) "exact" true (r.Trasyn.distance < 1e-7));
    Alcotest.test_case "same seed, same result" `Quick (fun () ->
        let target = Mat2.random_unitary (Random.State.make [| 9 |]) in
        let r1 = Trasyn.synthesize ~target ~budgets:[ 8; 8 ] () in
        let r2 = Trasyn.synthesize ~target ~budgets:[ 8; 8 ] () in
        Alcotest.(check string) "same sequence" (Ctgate.seq_to_string r1.Trasyn.seq)
          (Ctgate.seq_to_string r2.Trasyn.seq));
    Alcotest.test_case "T gate itself synthesizes with one T" `Quick (fun () ->
        let r = Trasyn.synthesize ~target:Mat2.t ~budgets:[ 4 ] () in
        Alcotest.(check bool) "<= 1 T" true (r.Trasyn.t_count <= 1);
        Alcotest.(check bool) "exact" true (r.Trasyn.distance < 1e-7));
    Alcotest.test_case "postprocess on empty and singleton words" `Quick (fun () ->
        let table = Ma_table.get 3 in
        Alcotest.(check (list string)) "empty" []
          (List.map Ctgate.to_string (Postprocess.run table []));
        Alcotest.(check int) "single H unchanged cost" 0
          (Ctgate.t_count (Postprocess.run table [ Ctgate.H ])));
  ]

let edge_pipeline =
  [
    Alcotest.test_case "epsilon scaling rule" `Quick (fun () ->
        Alcotest.(check (float 1e-12)) "half" 0.035
          (Pipeline.scaled_gridsynth_epsilon ~epsilon:0.07 ~u3_rotations:10 ~rz_rotations:20);
        Alcotest.(check (float 1e-12)) "no rz rotations" 0.07
          (Pipeline.scaled_gridsynth_epsilon ~epsilon:0.07 ~u3_rotations:10 ~rz_rotations:0));
    Alcotest.test_case "circuit with only trivial rotations synthesizes exactly" `Quick (fun () ->
        let c =
          Circuit.of_list 2
            [
              (Qgate.Rz (Float.pi /. 4.0), [ 0 ]); (Qgate.CX, [ 0; 1 ]);
              (Qgate.Rx (Float.pi /. 2.0), [ 1 ]);
            ]
        in
        let s = Test_pipeline.run (Stream_compile.config ~epsilon:0.01 ~jobs:Test_pipeline.jobs ()) c in
        Alcotest.(check int) "nothing sent to gridsynth" 0 s.Pipeline.rotations_synthesized;
        Alcotest.(check (float 1e-9)) "zero synth error" 0.0 s.Pipeline.total_synth_error);
  ]

let edge_noise =
  [
    Alcotest.test_case "t_only model ignores Clifford-only circuits" `Quick (fun () ->
        let c = Circuit.of_list 2 [ (Qgate.H, [ 0 ]); (Qgate.CX, [ 0; 1 ]); (Qgate.S, [ 1 ]) ] in
        let model = Noise.t_only_model 0.5 in
        Alcotest.(check (float 1e-12)) "no noise applied" 0.0
          (Noise.infidelity ~trajectories:10 ~model ~reference:c c));
    Alcotest.test_case "phase folding on empty circuit" `Quick (fun () ->
        let c = Circuit.empty 3 in
        Alcotest.(check int) "empty" 0 (Circuit.length (Phase_folding.run c)));
  ]

let suite =
  edge_bigint @ edge_rings @ edge_gridsynth @ edge_trasyn @ edge_pipeline @ edge_noise
