(* Tests for the benchmark suite and the end-to-end compilation
   pipelines (these are the slowest tests; they use small circuits). *)

(* Whole-circuit runs here use every recommended domain unless a test
   asks for a count. *)
let jobs = Domain.recommended_domain_count ()

(* A whole-circuit run that must succeed. *)
let run cfg c =
  match Pipeline.run cfg c with Ok s -> s | Error f -> Alcotest.fail (Robust.failure_to_string f)

let suite_tests =
  [
    Alcotest.test_case "exactly 187 benchmarks" `Quick (fun () ->
        Alcotest.(check int) "count" 187 (Suite.count ()));
    Alcotest.test_case "benchmark names are unique" `Quick (fun () ->
        let names = List.map (fun (b : Suite.benchmark) -> b.Suite.name) (Suite.all ()) in
        let uniq = List.sort_uniq compare names in
        Alcotest.(check int) "unique" (List.length names) (List.length uniq));
    Alcotest.test_case "no benchmark is trivial to synthesize" `Quick (fun () ->
        List.iter
          (fun (b : Suite.benchmark) ->
            Alcotest.(check bool)
              (b.Suite.name ^ " has nontrivial rotations")
              true
              (Circuit.nontrivial_rotation_count b.Suite.circuit > 0))
          (Suite.all ()));
    Alcotest.test_case "generation is deterministic" `Quick (fun () ->
        let a = Suite.all () and b = Suite.all () in
        List.iter2
          (fun (x : Suite.benchmark) (y : Suite.benchmark) ->
            Alcotest.(check int)
              (x.Suite.name ^ " gate count")
              (Circuit.length x.Suite.circuit)
              (Circuit.length y.Suite.circuit))
          a b);
    Alcotest.test_case "qaoa merge structure reduces rotations by ~40%" `Quick (fun () ->
        (* §3.4: for 3-regular graphs the U3 IR merges all but one Rx per
           layer, a ≈40% rotation reduction over the Rz IR. *)
        let c = Generators.qaoa ~seed:5 ~n:12 ~depth:3 in
        let _, u3 = Settings.best_for Settings.U3_ir c in
        let _, rz = Settings.best_for Settings.Rz_ir c in
        let ru3 = float_of_int (Circuit.nontrivial_rotation_count u3) in
        let rrz = float_of_int (Circuit.nontrivial_rotation_count rz) in
        let reduction = 1.0 -. (ru3 /. rrz) in
        Alcotest.(check bool)
          (Printf.sprintf "reduction %.2f in [0.2, 0.6]" reduction)
          true
          (reduction > 0.2 && reduction < 0.6));
  ]

let pipeline_tests =
  [
    Alcotest.test_case "gridsynth workflow output is pure Clifford+T" `Quick (fun () ->
        let c = Generators.qaoa ~seed:1 ~n:4 ~depth:1 in
        let s = run (Stream_compile.config ~epsilon:0.05 ~jobs ()) c in
        Alcotest.(check int) "no rotations left" 0 (Circuit.rotation_count s.Pipeline.circuit));
    Alcotest.test_case "trasyn workflow output is pure Clifford+T" `Quick (fun () ->
        let c = Generators.qaoa ~seed:1 ~n:4 ~depth:1 in
        let s = run (Stream_compile.config ~epsilon:0.07 ~ir:Settings.U3_ir ~jobs ()) c in
        Alcotest.(check int) "no rotations left" 0 (Circuit.rotation_count s.Pipeline.circuit));
    Alcotest.test_case "synthesized circuits approximate the original state" `Quick (fun () ->
        let c = Generators.tfim_evolution ~seed:3 ~n:4 ~steps:1 in
        let ideal = State.run c in
        let check_workflow name circ =
          let f = State.fidelity ideal (State.run circ) in
          Alcotest.(check bool) (Printf.sprintf "%s fidelity %.4f > 0.8" name f) true (f > 0.8)
        in
        check_workflow "gridsynth" (run (Stream_compile.config ~epsilon:0.02 ~jobs ()) c).Pipeline.circuit;
        check_workflow "trasyn"
          (run (Stream_compile.config ~epsilon:0.03 ~ir:Settings.U3_ir ~jobs ()) c).Pipeline.circuit);
    Alcotest.test_case "comparison ratios are positive" `Quick (fun () ->
        let c = Generators.vqe_hea ~seed:2 ~n:4 ~layers:1 in
        let cmp = Pipeline.compare_workflows (Stream_compile.config ~jobs ()) ~name:"vqe" c in
        Alcotest.(check bool) "t ratio > 0" true (cmp.Pipeline.t_ratio > 0.0);
        Alcotest.(check bool) "clifford ratio > 0" true (cmp.Pipeline.clifford_ratio > 0.0));
    Alcotest.test_case "U3 workflow beats Rz workflow on VQE" `Quick (fun () ->
        let c = Generators.vqe_hea ~seed:7 ~n:5 ~layers:2 in
        let cmp = Pipeline.compare_workflows (Stream_compile.config ~jobs ()) ~name:"vqe" c in
        Alcotest.(check bool)
          (Printf.sprintf "t ratio %.2f > 1.5" cmp.Pipeline.t_ratio)
          true
          (cmp.Pipeline.t_ratio > 1.5));
    Alcotest.test_case "memo caches count hits/misses and reset" `Quick (fun () ->
        Pipeline.clear_caches ();
        let hits = Obs.counter "pipeline.gridsynth_cache.hit" in
        let misses = Obs.counter "pipeline.gridsynth_cache.miss" in
        let h0 = Obs.counter_value hits and m0 = Obs.counter_value misses in
        let c = Generators.qaoa ~seed:1 ~n:4 ~depth:1 in
        let cfg = Stream_compile.config ~epsilon:0.05 ~jobs () in
        let s1 = run cfg c in
        let m_after_cold = Obs.counter_value misses in
        Alcotest.(check bool) "cold run misses" true (m_after_cold > m0);
        let s2 = run cfg c in
        Alcotest.(check bool) "warm run hits" true (Obs.counter_value hits > h0);
        Alcotest.(check int) "warm run adds no misses" m_after_cold (Obs.counter_value misses);
        Alcotest.(check int)
          "same T count either way"
          (Circuit.t_count s1.Pipeline.circuit)
          (Circuit.t_count s2.Pipeline.circuit);
        (* After a reset the same circuit misses again. *)
        Pipeline.clear_caches ();
        ignore (run cfg c : Pipeline.synthesized);
        Alcotest.(check bool) "cleared caches miss again" true
          (Obs.counter_value misses > m_after_cold));
    Alcotest.test_case "cache capacity bound triggers eviction" `Quick (fun () ->
        Pipeline.clear_caches ();
        let evictions = Obs.counter "pipeline.cache.evictions" in
        let e0 = Obs.counter_value evictions in
        Stream_compile.set_cache_capacity 2;
        Fun.protect ~finally:(fun () ->
            Stream_compile.set_cache_capacity 65_536;
            Pipeline.clear_caches ())
        @@ fun () ->
        (* Distinct angles at a loose epsilon: each is a fresh entry, so
           a capacity of 2 must flush at least once. *)
        List.iter
          (fun theta ->
            let a = Result.get_ok (Pipeline.gridsynth_rz_attempt ~epsilon:0.2 theta) in
            ignore (a : Robust.attempt))
          [ 0.31; 0.62; 0.93; 1.24 ];
        Alcotest.(check bool) "evicted" true (Obs.counter_value evictions > e0));
    Alcotest.test_case "phase folding keeps synthesized semantics" `Quick (fun () ->
        let c = Generators.maxcut_evolution ~seed:4 ~n:4 ~steps:1 in
        let s = run (Stream_compile.config ~epsilon:0.05 ~jobs ()) c in
        let folded = Phase_folding.run s.Pipeline.circuit in
        let d = Cmatrix.distance (Unitary.of_circuit s.Pipeline.circuit) (Unitary.of_circuit folded) in
        (* hundreds of float gates accumulate ~1e-7 of distance noise *)
        Alcotest.(check bool) "equal up to phase" true (d < 1e-5));
  ]

let synthetiq_tests =
  [
    Alcotest.test_case "solves an easy target" `Quick (fun () ->
        (* H is in the gate set; annealing must find something within 0.1. *)
        let r = Synthetiq.synthesize ~time_limit:2.0 ~target:Mat2.h ~epsilon:0.1 () in
        Alcotest.(check bool) "solved" true (r.Synthetiq.seq <> None));
    Alcotest.test_case "respects its wall-clock budget" `Quick (fun () ->
        let target = Mat2.random_unitary (Random.State.make [| 1 |]) in
        let r = Synthetiq.synthesize ~time_limit:0.5 ~target ~epsilon:1e-6 () in
        Alcotest.(check bool) "stopped in time" true (r.Synthetiq.elapsed < 5.0));
    Alcotest.test_case "reported distance matches its sequence" `Quick (fun () ->
        let target = Mat2.random_unitary (Random.State.make [| 2 |]) in
        let r = Synthetiq.synthesize ~time_limit:1.0 ~target ~epsilon:0.2 () in
        match r.Synthetiq.seq with
        | Some seq ->
            let d = Mat2.distance target (Ctgate.seq_to_mat2 seq) in
            Alcotest.(check (float 1e-9)) "distance" d r.Synthetiq.distance
        | None -> ());
  ]

let suite = suite_tests @ pipeline_tests @ synthetiq_tests

(* The hardened pipeline: structured failures, degradation reporting,
   and deadline plumbing. *)
let robustness_tests =
  [
    Alcotest.test_case "non-Rz rotation in a hand-fed Rz IR is a structured error" `Quick
      (fun () ->
        let c = Circuit.make 1 [ Circuit.instr (Qgate.U3 (0.3, 0.2, 0.1)) [| 0 |] ] in
        match Pipeline.run ~transpile:false (Stream_compile.config ~jobs ()) c with
        | Error (Robust.Backend_error msg) ->
            let n = String.length msg in
            let rec go i = i + 6 <= n && (String.sub msg i 6 = "non-Rz" || go (i + 1)) in
            Alcotest.(check bool) "names the bug" true (go 0)
        | Ok _ -> Alcotest.fail "a U3 must not pass the Rz workflow unnoticed"
        | Error f -> Alcotest.fail (Robust.failure_to_string f));
    Alcotest.test_case "degradation report captures forced fallbacks" `Quick (fun () ->
        Pipeline.clear_caches ();
        Robust.Fault.with_faults
          [ { Robust.Fault.backend = "trasyn"; mode = Robust.Fault.Fail; prob = 1.0 } ]
          (fun () ->
            let c = Circuit.make 1 [ Circuit.instr (Qgate.Rz 0.37) [| 0 |] ] in
            let s = run (Stream_compile.config ~epsilon:0.05 ~ir:Settings.U3_ir ~jobs ()) c in
            Alcotest.(check bool) "degraded nonempty" true (s.Pipeline.degraded <> []);
            List.iter
              (fun (d : Pipeline.degradation) ->
                Alcotest.(check bool) "fell back" true (d.Pipeline.fallbacks > 0);
                Alcotest.(check bool) "not trasyn" true (d.Pipeline.backend <> "trasyn"))
              s.Pipeline.degraded;
            (* The circuit is still pure Clifford+T. *)
            Alcotest.(check int) "no rotations left" 0
              (Circuit.nontrivial_rotation_count s.Pipeline.circuit)));
    Alcotest.test_case "clean runs report no degradation" `Quick (fun () ->
        Pipeline.clear_caches ();
        let c = Circuit.make 1 [ Circuit.instr (Qgate.Rz 0.37) [| 0 |] ] in
        let s = run (Stream_compile.config ~epsilon:0.05 ~jobs ()) c in
        Alcotest.(check bool) "no degradation" true (s.Pipeline.degraded = []));
    Alcotest.test_case "an expired circuit deadline aborts structurally" `Quick (fun () ->
        Pipeline.clear_caches ();
        let c = Circuit.make 1 [ Circuit.instr (Qgate.Rz 0.37) [| 0 |] ] in
        let expired ir = Stream_compile.config ~ir ~deadline:(Obs.Deadline.at 0.0) ~jobs () in
        (match Pipeline.run (expired Settings.U3_ir) c with
        | Error Robust.Timeout -> ()
        | Ok _ -> Alcotest.fail "should have timed out"
        | Error f -> Alcotest.fail (Robust.failure_to_string f));
        match Pipeline.run (expired Settings.Rz_ir) c with
        | Error Robust.Timeout -> ()
        | Ok _ -> Alcotest.fail "should have timed out"
        | Error f -> Alcotest.fail (Robust.failure_to_string f));
    Alcotest.test_case "direct style raises Failure_exn on failure" `Quick (fun () ->
        (* compare_workflows is the direct-style entry point. *)
        Pipeline.clear_caches ();
        let c = Circuit.make 1 [ Circuit.instr (Qgate.Rz 0.37) [| 0 |] ] in
        let cfg = Stream_compile.config ~deadline:(Obs.Deadline.at 0.0) ~jobs () in
        match Pipeline.compare_workflows cfg ~name:"rz" c with
        | exception Robust.Failure_exn Robust.Timeout -> ()
        | _ -> Alcotest.fail "expected Failure_exn Timeout");
    Alcotest.test_case "successes are cached, failures are not" `Quick (fun () ->
        Pipeline.clear_caches ();
        let c = Circuit.make 1 [ Circuit.instr (Qgate.Rz 0.37) [| 0 |] ] in
        (* A timed-out run must not poison the cache for the next one. *)
        (match Pipeline.run (Stream_compile.config ~deadline:(Obs.Deadline.at 0.0) ~jobs ()) c with
        | Error Robust.Timeout -> ()
        | _ -> Alcotest.fail "expected a timeout");
        let s = run (Stream_compile.config ~epsilon:0.05 ~jobs ()) c in
        Alcotest.(check bool) "clean rerun" true (s.Pipeline.degraded = []));
  ]

(* The single-rotation API resolves as the engine and the server do: a
   ≤1-T rotation gets its exact word, not a GRIDSYNTH approximation. *)
let exact_tests =
  [
    Alcotest.test_case "gridsynth_rz_attempt answers <=1-T rotations exactly" `Quick (fun () ->
        let pi = Float.pi in
        let rotations = Obs.counter "synth.rotations" in
        List.iter
          (fun (name, theta) ->
            let r0 = Obs.counter_value rotations in
            let a, records =
              Test_metrics.recorded (fun () -> Pipeline.gridsynth_rz_attempt ~epsilon:0.07 theta)
            in
            match a with
            | Error f -> Alcotest.failf "%s: %s" name (Robust.failure_to_string f)
            | Ok a ->
                Alcotest.(check bool) (name ^ ": at most one T") true
                  (Ctgate.t_count a.Robust.word <= 1);
                Alcotest.(check string) (name ^ ": backend") "exact" a.Robust.backend;
                Alcotest.(check int) (name ^ ": no chain run") r0 (Obs.counter_value rotations);
                Alcotest.(check int) (name ^ ": no ledger record") 0 (List.length records))
          [
            ("pi/4", pi /. 4.0); ("3pi/4", 3.0 *. pi /. 4.0);
            ("-pi/4+2pi", (-.pi /. 4.0) +. (2.0 *. pi)); ("pi/2", pi /. 2.0); ("0.0", 0.0);
            ("-0.0", -0.0);
          ]);
  ]

(* One synthesis policy: every entry point takes its chain, TRASYN
   settings and memo-key tag from [Stream_compile.policy]. *)
let policy_tests =
  [
    Alcotest.test_case "a custom chain runs alike whole-circuit and on the engine" `Quick (fun () ->
        let c =
          Circuit.make 5
            (List.mapi (fun q th -> Circuit.instr (Qgate.Rz th) [| q |]) [ 0.3; 0.7; 1.1; 2.3; -0.9 ])
        in
        let chain = match Synth.parse_chain "trasyn,sk" with Ok c -> c | Error e -> failwith e in
        Pipeline.clear_caches ();
        let whole = run (Stream_compile.config ~chain ()) c in
        Pipeline.clear_caches ();
        match Stream_compile.run_ir (Stream_compile.config ~chain ()) whole.Pipeline.transpiled with
        | Error f -> Alcotest.fail (Robust.failure_to_string f)
        | Ok (engine, _) ->
            Alcotest.(check string) "same QASM" (Qasm.to_string engine)
              (Qasm.to_string whole.Pipeline.circuit));
    Alcotest.test_case "memo keys carry the TRASYN settings: a k sweep in one process" `Quick
      (fun () ->
        let st = Random.State.make [| 7 |] in
        let c =
          Circuit.make 12
            (List.init 12 (fun q ->
                 let th = Random.State.float st 3.0 in
                 let ph = Random.State.float st 6.0 -. 3.0 in
                 let la = Random.State.float st 6.0 -. 3.0 in
                 Circuit.instr (Qgate.U3 (th, ph, la)) [| q |]))
        in
        let small = { Stream_compile.default_trasyn with Trasyn.table_t = 6; samples = 8 } in
        let big = { small with Trasyn.samples = 2048 } in
        let qasm trasyn =
          Qasm.to_string (run (Stream_compile.config ~ir:Settings.U3_ir ~trasyn ()) c).Pipeline.circuit
        in
        Pipeline.clear_caches ();
        let small_words = qasm small in
        let after_small = qasm big in
        Pipeline.clear_caches ();
        let fresh = qasm big in
        Alcotest.(check bool) "k changes the words" true (small_words <> fresh);
        Alcotest.(check string) "k 2048 after k 8 = fresh k 2048" fresh after_small);
  ]

let suite = suite @ robustness_tests @ exact_tests @ policy_tests
