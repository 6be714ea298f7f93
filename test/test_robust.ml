(* Tests for the robustness layer: the verification guard, the
   TGATES_FAULTS grammar and pure fault draws, fallback chains
   (run by [Synth.run_chain]) with deadline propagation, and the CLI
   error boundary. *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* Counter assertions only mean something with the metrics layer on. *)
let with_obs f =
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled was) f

let counter_delta name f =
  let c = Obs.counter name in
  let v0 = Obs.counter_value c in
  let r = f () in
  (r, Obs.counter_value c - v0)

(* A known-good (word, claimed distance) pair for Rz(0.61) at 1e-2. *)
let good_rz () =
  let r = Gridsynth.rz ~theta:0.61 ~epsilon:1e-2 () in
  (r.Gridsynth.seq, r.Gridsynth.distance)

(* Chains of gridsynth rungs on Rz(0.61) at 1e-2.  A raising rung is
   handed an invalid ε, so GRIDSYNTH raises and its adapter reports the
   exception as a [Backend_error]. *)
let gridsynth = Synth.find_exn "gridsynth"
let ok_rung ?(name = "good") () = Synth.rung ~name gridsynth

let raising_rung name =
  Synth.rung ~name ~tweak:(fun c -> { c with Synth.epsilon = -1.0 }) gridsynth

let run_chain ?deadline rungs =
  Synth.run_chain ?deadline ~config:(Synth.config ~epsilon:1e-2 ()) rungs (Synth.Rz 0.61)

let fault ?(prob = 1.0) backend mode = { Robust.Fault.backend; mode; prob }

let guard_tests =
  [
    Alcotest.test_case "guard accepts an honest word" `Quick (fun () ->
        let word, claimed = good_rz () in
        match Robust.verify ~target:(Mat2.rz 0.61) ~epsilon:1e-2 ~claimed word with
        | Ok d -> Alcotest.(check bool) "within threshold" true (d <= 1e-2)
        | Error f -> Alcotest.fail (Robust.failure_to_string f));
    Alcotest.test_case "guard rejects a dishonest distance claim" `Quick (fun () ->
        with_obs @@ fun () ->
        let word, claimed = good_rz () in
        let r, rejected =
          counter_delta "robust.guard.rejected" (fun () ->
              Robust.verify ~target:(Mat2.rz 0.61) ~epsilon:1e-2 ~claimed:(claimed +. 0.3) word)
        in
        (match r with
        | Error Robust.Verification_failed -> ()
        | _ -> Alcotest.fail "lie should be Verification_failed");
        Alcotest.(check int) "rejected counter" 1 rejected);
    Alcotest.test_case "guard catches a corrupted word" `Quick (fun () ->
        let word, claimed = good_rz () in
        match
          Robust.verify ~target:(Mat2.rz 0.61) ~epsilon:1e-2 ~claimed (Ctgate.X :: word)
        with
        | Error Robust.Verification_failed -> ()
        | _ -> Alcotest.fail "corruption should be Verification_failed");
    Alcotest.test_case "guard fails closed on a NaN claim or threshold" `Quick (fun () ->
        let word, claimed = good_rz () in
        let target = Mat2.rz 0.61 in
        (match Robust.verify ~target ~epsilon:1e-2 ~claimed:nan word with
        | Error Robust.Verification_failed -> ()
        | _ -> Alcotest.fail "a NaN claim should be Verification_failed");
        match Robust.verify ~target ~epsilon:nan ~claimed word with
        | Error Robust.Budget_exhausted -> ()
        | _ -> Alcotest.fail "a NaN threshold should be Budget_exhausted");
    Alcotest.test_case "honest overshoot is Budget_exhausted" `Quick (fun () ->
        let word, _ = good_rz () in
        let target = Mat2.rz 2.0 in
        (* Claim the true (large) distance to a different target: honest,
           but far above threshold. *)
        let claimed = Mat2.distance target (Ctgate.seq_to_mat2 word) in
        match Robust.verify ~target ~epsilon:1e-2 ~claimed word with
        | Error Robust.Budget_exhausted -> ()
        | _ -> Alcotest.fail "honest miss should be Budget_exhausted");
  ]

let parse_tests =
  [
    Alcotest.test_case "fault grammar parses the documented forms" `Quick (fun () ->
        (match Robust.Fault.parse "trasyn=fail" with
        | Ok (None, [ { Robust.Fault.backend = "trasyn"; mode = Robust.Fault.Fail; prob } ]) ->
            Alcotest.(check (float 0.0)) "default prob" 1.0 prob
        | _ -> Alcotest.fail "trasyn=fail");
        (match Robust.Fault.parse "*=corrupt@0.25,seed=7" with
        | Ok (Some 7, [ { Robust.Fault.backend = "*"; mode = Robust.Fault.Corrupt; prob } ]) ->
            Alcotest.(check (float 1e-12)) "prob" 0.25 prob
        | _ -> Alcotest.fail "*=corrupt@0.25,seed=7");
        match Robust.Fault.parse "gridsynth=stall:0.2,sk=fail" with
        | Ok
            ( None,
              [
                { Robust.Fault.backend = "gridsynth"; mode = Robust.Fault.Stall s; _ };
                { Robust.Fault.backend = "sk"; mode = Robust.Fault.Fail; _ };
              ] ) ->
            Alcotest.(check (float 1e-12)) "stall seconds" 0.2 s
        | _ -> Alcotest.fail "gridsynth=stall:0.2,sk=fail");
    Alcotest.test_case "fault grammar rejects malformed specs" `Quick (fun () ->
        let bad s =
          match Robust.Fault.parse s with
          | Error _ -> ()
          | Ok _ -> Alcotest.fail (s ^ " should be rejected")
        in
        bad "nonsense";
        bad "trasyn=bogus";
        bad "trasyn=fail@1.5";
        bad "trasyn=fail@x";
        bad "seed=abc";
        bad "trasyn=stall:-1";
        bad "=fail");
    Alcotest.test_case "empty spec means no faults" `Quick (fun () ->
        match Robust.Fault.parse "" with
        | Ok (None, []) -> ()
        | _ -> Alcotest.fail "empty string should parse to nothing");
  ]

let draw_tests =
  (* The spec every draw case uses, parsed as TGATES_FAULTS would be. *)
  let seed, specs =
    match Robust.Fault.parse "gridsynth=fail@0.5,seed=3" with
    | Ok (Some seed, specs) -> (seed, specs)
    | _ -> Alcotest.fail "spec did not parse"
  in
  let draw ?(site = "gridsynth") i =
    Robust.Fault.draw site ~key:(fun () -> Printf.sprintf "k%d" i)
  in
  [
    Alcotest.test_case "a draw depends only on (seed, site, key)" `Quick (fun () ->
        let forward, reverse, split, retry_site =
          Robust.Fault.with_faults ~seed specs (fun () ->
              let forward = List.init 64 (fun i -> draw i) in
              let reverse = List.rev (List.init 64 (fun i -> draw (63 - i))) in
              let half lo = Domain.spawn (fun () -> List.init 32 (fun i -> draw (lo + i))) in
              let a = half 0 and b = half 32 in
              let split = Domain.join a @ Domain.join b in
              (forward, reverse, split, List.init 64 (fun i -> draw ~site:"gridsynth.retry" i)))
        in
        let reseeded =
          Robust.Fault.with_faults ~seed:(seed + 1) specs (fun () -> List.init 64 (fun i -> draw i))
        in
        Alcotest.(check bool) "reverse order" true (forward = reverse);
        Alcotest.(check bool) "split across two domains" true (forward = split);
        Alcotest.(check bool) "mixed outcomes at p=0.5" true
          (List.exists Option.is_some forward && List.exists Option.is_none forward);
        Alcotest.(check bool) "another site draws afresh" true (forward <> retry_site);
        Alcotest.(check bool) "another seed draws afresh" true (forward <> reseeded);
        let fired =
          Robust.Fault.with_faults ~seed [ fault ~prob:0.25 "gridsynth" Robust.Fault.Fail ]
            (fun () -> List.length (List.filter Option.is_some (List.init 1000 (fun i -> draw i))))
        in
        Alcotest.(check bool) (Printf.sprintf "fired share %d/1000 in [0.2, 0.3]" fired) true
          (fired >= 200 && fired <= 300));
    Alcotest.test_case "specs match sub-rungs by dotted prefix" `Quick (fun () ->
        Robust.Fault.with_faults [ fault "trasyn" Robust.Fault.Fail ] (fun () ->
            let draw site = Robust.Fault.draw site ~key:(fun () -> "k") in
            Alcotest.(check bool) "exact" true (draw "trasyn" = Some Robust.Fault.Fail);
            Alcotest.(check bool) "sub-rung" true (draw "trasyn.retry" = Some Robust.Fault.Fail);
            Alcotest.(check bool) "other backend" true (draw "gridsynth" = None);
            Alcotest.(check bool) "no partial-word match" true (draw "trasynx" = None)));
    Alcotest.test_case "with_faults restores the previous plan" `Quick (fun () ->
        Robust.Fault.with_faults ~seed specs (fun () ->
            Robust.Fault.with_faults [] (fun () ->
                Alcotest.(check bool) "no plan, no key formatted" true
                  (Robust.Fault.draw "gridsynth" ~key:(fun () -> Alcotest.fail "key formatted")
                  = None));
            Alcotest.(check bool) "restored" true
              (List.exists Option.is_some (List.init 16 (fun i -> draw i)))));
  ]

let chain_tests =
  [
    Alcotest.test_case "chain falls back past a raising rung" `Quick (fun () ->
        with_obs @@ fun () ->
        let (r, retries), fell_back =
          counter_delta "robust.fallback.good" (fun () ->
              counter_delta "robust.retries" (fun () ->
                  run_chain [ raising_rung "broken"; ok_rung () ]))
        in
        (match r with
        | Ok a ->
            Alcotest.(check string) "winner" "good" a.Robust.backend;
            Alcotest.(check int) "fallbacks" 1 a.Robust.fallbacks;
            Alcotest.(check bool) "verified distance" true (a.Robust.distance <= 1e-2)
        | Error f -> Alcotest.fail (Robust.failure_to_string f));
        Alcotest.(check int) "retries counted" 1 retries;
        Alcotest.(check int) "fallback counted" 1 fell_back);
    Alcotest.test_case "raising rungs become Backend_error" `Quick (fun () ->
        with_obs @@ fun () ->
        let r, failed =
          counter_delta "robust.chain.failed" (fun () ->
              run_chain [ raising_rung "broken" ])
        in
        (match r with
        | Error (Robust.Backend_error msg) ->
            Alcotest.(check bool) "carries the cause" true
              (contains msg "epsilon must be positive")
        | _ -> Alcotest.fail "expected Backend_error");
        Alcotest.(check int) "chain.failed counted" 1 failed);
    Alcotest.test_case "empty chain fails structurally" `Quick (fun () ->
        match run_chain [] with
        | Error (Robust.Backend_error msg) ->
            Alcotest.(check bool) "says no backend" true (contains msg "no backend in chain")
        | _ -> Alcotest.fail "expected Backend_error");
    Alcotest.test_case "expired deadline short-circuits the chain" `Quick (fun () ->
        with_obs @@ fun () ->
        let r, expired =
          counter_delta "robust.deadline.expired" (fun () ->
              run_chain ~deadline:(Obs.Deadline.at 0.0) [ ok_rung () ])
        in
        (match r with
        | Error Robust.Timeout -> ()
        | _ -> Alcotest.fail "expected Timeout");
        Alcotest.(check bool) "deadline counter" true (expired >= 1));
    Alcotest.test_case "an injected stall burns the deadline into Timeout" `Quick (fun () ->
        Robust.Fault.with_faults [ fault "slow" (Robust.Fault.Stall 0.05) ] (fun () ->
            match
              run_chain ~deadline:(Obs.Deadline.after 0.01) [ ok_rung ~name:"slow" (); ok_rung () ]
            with
            | Error Robust.Timeout -> ()
            | Ok _ -> Alcotest.fail "stall should have burned the budget"
            | Error f -> Alcotest.fail (Robust.failure_to_string f)));
    Alcotest.test_case "injected failure falls through to the next rung" `Quick (fun () ->
        with_obs @@ fun () ->
        Robust.Fault.with_faults [ fault "flaky" Robust.Fault.Fail ] (fun () ->
            let r, injected =
              counter_delta "robust.faults.injected" (fun () ->
                  run_chain [ ok_rung ~name:"flaky" (); ok_rung () ])
            in
            (match r with
            | Ok a -> Alcotest.(check string) "winner" "good" a.Robust.backend
            | Error f -> Alcotest.fail (Robust.failure_to_string f));
            Alcotest.(check int) "fault counted" 1 injected));
    Alcotest.test_case "injected corruption is caught by the guard" `Quick (fun () ->
        with_obs @@ fun () ->
        Robust.Fault.with_faults [ fault "good" Robust.Fault.Corrupt ] (fun () ->
            let r, rejected =
              counter_delta "robust.guard.rejected" (fun () ->
                  run_chain [ ok_rung () ])
            in
            (match r with
            | Error Robust.Verification_failed -> ()
            | Ok _ -> Alcotest.fail "corrupted word must not be accepted"
            | Error f -> Alcotest.fail (Robust.failure_to_string f));
            Alcotest.(check int) "guard rejected it" 1 rejected));
  ]

(* The standard ladders are data in Synth; these tests pin down their
   fallback semantics. *)
let rz_ladder () =
  Synth.run_chain ~config:(Synth.config ~epsilon:1e-2 ()) (Synth.rz_chain ()) (Synth.Rz 0.61)

let u3_ladder () =
  Synth.run_chain ~config:(Synth.config ~epsilon:0.05 ()) Synth.u3_chain
    (Synth.Unitary (Mat2.u3 0.4 1.1 (-0.7)))

let ladder_tests =
  [
    Alcotest.test_case "rz happy path takes the first rung" `Quick (fun () ->
        match rz_ladder () with
        | Ok a ->
            Alcotest.(check string) "backend" "gridsynth" a.Robust.backend;
            Alcotest.(check int) "no fallbacks" 0 a.Robust.fallbacks;
            Alcotest.(check bool) "distance" true (a.Robust.distance <= 1e-2)
        | Error f -> Alcotest.fail (Robust.failure_to_string f));
    Alcotest.test_case "u3 ladder survives a dead TRASYN" `Quick (fun () ->
        Robust.Fault.with_faults [ fault "trasyn" Robust.Fault.Fail ] (fun () ->
            match u3_ladder () with
            | Ok a ->
                Alcotest.(check string) "rescued by gridsynth" "gridsynth" a.Robust.backend;
                Alcotest.(check int) "two dead rungs" 2 a.Robust.fallbacks;
                Alcotest.(check bool) "still meets epsilon" true (a.Robust.distance <= 0.05)
            | Error f -> Alcotest.fail (Robust.failure_to_string f)));
    Alcotest.test_case "Solovay-Kitaev is the last resort" `Quick (fun () ->
        Robust.Fault.with_faults
          [ fault "trasyn" Robust.Fault.Fail; fault "gridsynth" Robust.Fault.Fail ]
          (fun () ->
            match u3_ladder () with
            | Ok a ->
                Alcotest.(check string) "backend" "sk" a.Robust.backend;
                (* SK lands under its relaxed floor; the degradation is
                   visible as distance > the requested 0.05. *)
                Alcotest.(check bool) "under the floor" true (a.Robust.distance <= 0.45)
            | Error f -> Alcotest.fail (Robust.failure_to_string f)));
    Alcotest.test_case "all backends dead means a structured failure" `Quick (fun () ->
        Robust.Fault.with_faults [ fault "*" Robust.Fault.Fail ] (fun () ->
            match rz_ladder () with
            | Error (Robust.Backend_error msg) ->
                Alcotest.(check bool) "last rung named" true (contains msg "sk")
            | Ok _ -> Alcotest.fail "nothing should succeed"
            | Error f -> Alcotest.fail (Robust.failure_to_string f)));
  ]

let guarded_tests =
  [
    Alcotest.test_case "guarded passes values through" `Quick (fun () ->
        Alcotest.(check bool) "ok" true (Robust.guarded (fun () -> 42) = Ok 42));
    Alcotest.test_case "guarded formats the failure taxonomy" `Quick (fun () ->
        (match Robust.guarded (fun () -> Robust.fail Robust.Timeout) with
        | Error msg -> Alcotest.(check bool) "timeout" true (contains msg "timeout")
        | Ok _ -> Alcotest.fail "should fail");
        (match Robust.guarded (fun () -> raise (Qasm_reader.Parse_error ("f.qasm", 3, 5, "bad gate"))) with
        | Error msg ->
            Alcotest.(check bool) "file:line:col" true (contains msg "f.qasm:3:5");
            Alcotest.(check bool) "prefix" true (String.length msg >= 6 && String.sub msg 0 6 = "error:")
        | Ok _ -> Alcotest.fail "should fail");
        match Robust.guarded (fun () -> invalid_arg "nope") with
        | Error msg -> Alcotest.(check bool) "invalid arg" true (contains msg "nope")
        | Ok _ -> Alcotest.fail "should fail");
  ]

let suite = guard_tests @ parse_tests @ draw_tests @ chain_tests @ ladder_tests @ guarded_tests
