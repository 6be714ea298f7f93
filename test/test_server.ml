(* Unit tests for the batch server engine, driven without a process
   boundary: requests go in through [Server.submit_line], responses come
   out through the [emit] callback.  [drain] joins the workers, so after
   it returns every submitted request has exactly one response. *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let make_server ?(cfg = Server.default_config) () =
  let out = ref [] in
  let m = Mutex.create () in
  let emit s =
    Mutex.lock m;
    out := s :: !out;
    Mutex.unlock m
  in
  let t = Server.create ~emit cfg in
  (t, fun () -> List.rev !out)

let cval name = Obs.counter_value (Obs.counter name)

let suite =
  [
    Alcotest.test_case "ping, stats and bad requests answer synchronously" `Quick (fun () ->
        let t, out = make_server () in
        Alcotest.(check bool) "ping continues" true (Server.submit_line t {|{"op":"ping","id":7}|} = `Continue);
        ignore (Server.submit_line t {|{"op":"stats"}|});
        ignore (Server.submit_line t "this is not json");
        ignore (Server.submit_line t {|{"op":"frobnicate"}|});
        ignore (Server.submit_line t {|{"op":"rz","theta":0.1,"epsilon":-1.0}|});
        Server.drain t;
        match out () with
        | [ pong; stats; bad1; bad2; bad3 ] ->
            Alcotest.(check bool) "pong" true
              (contains pong {|"op":"ping"|} && contains pong {|"id":7|});
            Alcotest.(check bool) "stats schema" true (contains stats "tgates-server-stats/v1");
            Alcotest.(check bool) "non-json" true (contains bad1 "bad_request");
            Alcotest.(check bool) "unknown op" true (contains bad2 "bad_request");
            Alcotest.(check bool) "bad epsilon" true (contains bad3 "bad_request")
        | rs -> Alcotest.failf "expected 5 responses, got %d" (List.length rs));
    Alcotest.test_case "rz and batch synthesize through the registry" `Quick (fun () ->
        let t, out = make_server () in
        ignore (Server.submit_line t {|{"op":"rz","id":1,"theta":0.37,"epsilon":0.07}|});
        ignore
          (Server.submit_line t
             {|{"op":"batch","id":2,"requests":[{"op":"rz","theta":0.5},{"op":"u3","theta":0.3,"phi":1.1,"lam":-0.7}]}|});
        Server.drain t;
        (match out () with
        | [ r1; r2 ] ->
            Alcotest.(check bool) "rz ok" true (contains r1 {|"ok":true|});
            Alcotest.(check bool) "rz word" true (contains r1 {|"word"|});
            Alcotest.(check bool) "rz source" true
              (contains r1 {|"source":"fresh"|} || contains r1 {|"source":"store"|});
            Alcotest.(check bool) "batch ok" true (contains r2 {|"ok":true|});
            Alcotest.(check bool) "batch results" true (contains r2 {|"results"|});
            Alcotest.(check bool) "batch u3 target" true (contains r2 "u3(")
        | rs -> Alcotest.failf "expected 2 responses, got %d" (List.length rs));
        (* Drain is idempotent, and a drained server sheds. *)
        Server.drain t;
        ignore (Server.submit_line t {|{"op":"rz","id":9,"theta":0.1}|});
        match List.rev (out ()) with
        | last :: _ -> Alcotest.(check bool) "shed after drain" true (contains last "overloaded")
        | [] -> Alcotest.fail "no shed response");
    Alcotest.test_case "shutdown op stops the read loop" `Quick (fun () ->
        let t, out = make_server () in
        Alcotest.(check bool) "shutdown stops" true
          (Server.submit_line t {|{"op":"shutdown","id":3}|} = `Stop);
        Server.drain t;
        match out () with
        | [ r ] -> Alcotest.(check bool) "acked" true (contains r {|"ok":true|})
        | rs -> Alcotest.failf "expected 1 response, got %d" (List.length rs));
    Alcotest.test_case "request ids thread through responses, stats and the slowest ring" `Quick
      (fun () ->
        let t, out = make_server () in
        ignore (Server.submit_line t {|{"op":"rz","id":1,"theta":0.37,"epsilon":0.3}|});
        ignore
          (Server.submit_line t
             {|{"op":"batch","id":2,"requests":[{"op":"rz","theta":0.5,"epsilon":0.3},{"op":"rz","theta":1.1,"epsilon":0.3}]}|});
        Server.drain t;
        (match out () with
        | [ r1; r2 ] ->
            Alcotest.(check bool) "rz request_id" true (contains r1 {|"request_id":"r1"|});
            Alcotest.(check bool) "batch request_id" true (contains r2 {|"request_id":"r2"|});
            Alcotest.(check bool) "batch element ids" true
              (contains r2 {|"request_id":"r2.0"|} && contains r2 {|"request_id":"r2.1"|})
        | rs -> Alcotest.failf "expected 2 responses, got %d" (List.length rs));
        Alcotest.(check bool) "trace_id nonempty" true (String.length (Server.trace_id t) > 0);
        Alcotest.(check bool) "uptime positive" true (Server.uptime_s t > 0.0);
        (* After drain every worker has recorded its telemetry, so the
           snapshot must reconcile with the traffic just sent. *)
        let stats = Server.stats_json t in
        let num path =
          let rec go j = function
            | [] -> ( match j with Obs.Json.Num f -> f | _ -> Alcotest.fail "not a number")
            | k :: rest -> (
                match Obs.Json.member k j with
                | Some j' -> go j' rest
                | None -> Alcotest.failf "stats field %s missing" k)
          in
          go stats path
        in
        Alcotest.(check int) "latency count" 2 (int_of_float (num [ "latency"; "count" ]));
        Alcotest.(check int) "queue_wait count" 2 (int_of_float (num [ "queue_wait"; "count" ]));
        Alcotest.(check int) "commands.rz" 1 (int_of_float (num [ "commands"; "rz" ]));
        Alcotest.(check int) "commands.batch" 1 (int_of_float (num [ "commands"; "batch" ]));
        Alcotest.(check bool) "quantiles ordered" true
          (num [ "latency"; "p999_s" ] >= num [ "latency"; "p50_s" ]);
        match Obs.Json.member "slowest" stats with
        | Some (Obs.Json.Arr exemplars) ->
            Alcotest.(check int) "slowest ring holds both requests" 2 (List.length exemplars)
        | _ -> Alcotest.fail "stats without slowest array");
    Alcotest.test_case "a faulted batch answers each angle alike in any order" `Quick (fun () ->
        (* Under gridsynth=fail@0.5 some elements fall back, and which
           ones depends on each rotation alone, not on its place in the
           batch or the planner domain that runs it. *)
        let angles = List.init 16 (fun i -> -2.9 +. (0.37 *. float_of_int i)) in
        let answers angles =
          let t, out = make_server () in
          ignore
            (Server.submit_line t
               (Printf.sprintf {|{"op":"batch","id":1,"requests":[%s]}|}
                  (String.concat ","
                     (List.map (Printf.sprintf {|{"op":"rz","theta":%.17g,"epsilon":0.1}|}) angles))));
          Server.drain t;
          match out () with
          | [ r ] -> (
              match Result.map (Obs.Json.member "results") (Obs.Json.parse r) with
              | Ok (Some (Obs.Json.Arr results)) ->
                  (* Everything but the element's request id. *)
                  let answer = function
                    | Obs.Json.Obj fields ->
                        Obs.Json.to_string
                          (Obs.Json.Obj (List.filter (fun (k, _) -> k <> "request_id") fields))
                    | _ -> Alcotest.fail "a result is not an object"
                  in
                  List.sort compare (List.combine angles (List.map answer results))
              | _ -> Alcotest.failf "no results array: %s" r)
          | rs -> Alcotest.failf "expected 1 response, got %d" (List.length rs)
        in
        let forward, reverse =
          match Robust.Fault.parse "gridsynth=fail@0.5,seed=3" with
          | Ok (seed, specs) ->
              Robust.Fault.with_faults ?seed specs (fun () ->
                  let forward = answers angles in
                  (forward, answers (List.rev angles)))
          | Error e -> Alcotest.failf "fault parse: %s" e
        in
        Alcotest.(check bool) "some elements fell back" true
          (List.exists (fun (_, a) -> not (contains a {|"backend":"gridsynth"|})) forward);
        List.iter2
          (fun (a, f) (_, r) -> Alcotest.(check string) (Printf.sprintf "rz(%g)" a) f r)
          forward reverse);
    Alcotest.test_case "transient failures are retried with backoff, then reported" `Quick
      (fun () ->
        (* Every backend rung dead: each attempt fails as a transient
           backend error, the engine retries max_retries times, and the
           response carries the failure tag and the retry count. *)
        (match Robust.Fault.parse "*=fail,seed=3" with
        | Ok (seed, specs) -> Robust.Fault.configure ?seed specs
        | Error e -> Alcotest.failf "fault parse: %s" e);
        Fun.protect ~finally:(fun () -> Robust.Fault.configure []) @@ fun () ->
        let cfg =
          { Server.default_config with Server.max_retries = 2; backoff_base_s = 0.001; backoff_cap_s = 0.002 }
        in
        let retries0 = cval "server.retries" in
        let t, out = make_server ~cfg () in
        ignore (Server.submit_line t {|{"op":"rz","id":4,"theta":0.37}|});
        ignore (Server.submit_line t {|{"op":"batch","id":5,"requests":[{"op":"rz","theta":0.41}]}|});
        Server.drain t;
        (match out () with
        | [ r; b ] ->
            Alcotest.(check bool) "failed" true (contains r {|"ok":false|});
            Alcotest.(check bool) "retries reported" true (contains r {|"retries":2|});
            Alcotest.(check bool) "batch element retries reported" true
              (contains b {|"error":"backend_error"|} && contains b {|"retries":2|})
        | rs -> Alcotest.failf "expected 2 responses, got %d" (List.length rs));
        Alcotest.(check int) "retry counter" (retries0 + 4) (cval "server.retries"));
    Alcotest.test_case "out-of-range epsilons get structured replies and the server lives" `Quick
      (fun () ->
        (* ε 1e-9 is below GRIDSYNTH's floor: its oversized grid problems
           fail their levels instead of exhausting memory.  NaN is not
           JSON and infinity is not a tolerance: both are bad requests. *)
        let t, out = make_server () in
        ignore
          (Server.submit_line t
             {|{"op":"rz","id":1,"theta":0.61,"epsilon":1e-9,"deadline_s":2.0}|});
        ignore (Server.submit_line t {|{"op":"rz","id":2,"theta":0.61,"epsilon":NaN}|});
        ignore (Server.submit_line t {|{"op":"rz","id":3,"theta":0.61,"epsilon":1e999}|});
        ignore (Server.submit_line t {|{"op":"ping","id":4}|});
        Server.drain t;
        let rs = out () in
        let find id = List.find_opt (fun r -> contains r (Printf.sprintf {|"id":%d|} id)) rs in
        Alcotest.(check int) "one reply each" 4 (List.length rs);
        (match find 1 with
        | Some r ->
            Alcotest.(check bool) "1e-9 answered" true
              (contains r {|"ok":true|} || contains r {|"ok":false,"error"|})
        | None -> Alcotest.fail "no reply to the 1e-9 request");
        Alcotest.(check bool) "NaN is a bad request" true
          (List.exists (fun r -> contains r {|"id":null|} && contains r "bad_request") rs);
        (match find 3 with
        | Some r -> Alcotest.(check bool) "infinite epsilon is a bad request" true (contains r "bad_request")
        | None -> Alcotest.fail "no reply to the infinite-epsilon request");
        match find 4 with
        | Some r -> Alcotest.(check bool) "ping" true (contains r {|"op":"ping"|})
        | None -> Alcotest.fail "no reply to ping");
    Alcotest.test_case "every server job's span names its backend" `Quick (fun () ->
        let path = Filename.temp_file "tgates_server_trace" ".jsonl" in
        Obs.trace_to_file path;
        let t, _ = make_server ~cfg:{ Server.default_config with Server.planner_jobs = Some 2 } () in
        ignore (Server.submit_line t {|{"op":"rz","id":1,"theta":0.23}|});
        ignore
          (Server.submit_line t
             {|{"op":"batch","id":2,"requests":[{"op":"rz","theta":0.5},{"op":"rz","theta":0.9},{"op":"rz","theta":0.5}]}|});
        Server.drain t;
        Obs.finish ();
        Obs.set_enabled false;
        let tr =
          match Trace_analysis.load path with Ok tr -> tr | Error e -> Alcotest.failf "load: %s" e
        in
        Sys.remove path;
        let rows =
          List.filter_map
            (fun (h : Trace_analysis.hotspot) ->
              if String.starts_with ~prefix:"planner.job" h.Trace_analysis.hot_name then
                Some (h.Trace_analysis.hot_name, h.Trace_analysis.calls)
              else None)
            (Trace_analysis.hotspots tr)
        in
        Alcotest.(check (list (pair string int))) "one job per distinct rotation, each named"
          [ ("planner.job[gridsynth]", 3) ] rows);
    Alcotest.test_case "every rotation of a batch gets a ledger record, repeats included" `Quick
      (fun () ->
        let summary rs =
          List.sort compare
            (List.map (fun r -> (r.Ledger.request_id, r.Ledger.source, r.Ledger.ok)) rs)
        in
        let responses, records =
          Test_metrics.recorded (fun () ->
              let t, out = make_server () in
              ignore
                (Server.submit_line t
                   {|{"op":"batch","id":1,"requests":[{"op":"rz","theta":0.3},{"op":"rz","theta":0.3},{"op":"rz","theta":0.7},{"op":"rz","theta":0.3}]}|});
              ignore (Server.submit_line t {|{"op":"rz","id":2,"theta":0.3}|});
              Server.drain t;
              out ())
        in
        Alcotest.(check int) "two responses" 2 (List.length responses);
        Alcotest.(check (list (triple string string bool)))
          "one record per rotation served"
          [ ("r1.0", "fresh", true); ("r1.1", "replay", true); ("r1.2", "fresh", true);
            ("r1.3", "replay", true); ("r2", "fresh", true) ]
          (summary records);
        (* A failed job's repeats are recorded as failures too. *)
        let dead = { Robust.Fault.backend = "*"; mode = Robust.Fault.Fail; prob = 1.0 } in
        let (), records =
          Test_metrics.recorded (fun () ->
              Robust.Fault.with_faults [ dead ] (fun () ->
                  let t, _ =
                    make_server ~cfg:{ Server.default_config with Server.max_retries = 0 } ()
                  in
                  ignore
                    (Server.submit_line t
                       {|{"op":"batch","id":3,"requests":[{"op":"rz","theta":0.41},{"op":"rz","theta":0.41}]}|});
                  Server.drain t))
        in
        Alcotest.(check (list (triple string string bool)))
          "failures replayed"
          [ ("r1.0", "fresh", false); ("r1.1", "replay", false) ]
          (summary records));
    Alcotest.test_case "rotations resolve as in the engine: exact words, canonical keys" `Quick
      (fun () ->
        let jobs0 = cval "obs.planner.jobs" in
        let responses, records =
          Test_metrics.recorded (fun () ->
              let t, out = make_server () in
              ignore
                (Server.submit_line t
                   (Printf.sprintf
                      {|{"op":"batch","id":1,"requests":[{"op":"rz","theta":%.17g},{"op":"rz","theta":0.3},{"op":"rz","theta":%.17g},{"op":"rz","theta":-0.0}]}|}
                      (Float.pi /. 4.0)
                      (0.3 +. (2.0 *. Float.pi))));
              ignore
                (Server.submit_line t
                   (Printf.sprintf {|{"op":"u3","id":2,"theta":0,"phi":0,"lam":%.17g}|}
                      (Float.pi /. 4.0)));
              Server.drain t;
              List.map
                (fun l ->
                  match Obs.Json.parse l with Ok j -> j | Error e -> Alcotest.failf "%s: %s" l e)
                (out ()))
        in
        let field k j =
          match Obs.Json.member k j with
          | Some (Obs.Json.Str s) -> s
          | Some (Obs.Json.Num f) -> Printf.sprintf "%g" f
          | _ -> Alcotest.failf "no %s in %s" k (Obs.Json.to_string j)
        in
        let word_of j = (field "word" j, field "t_count" j, field "target" j, field "source" j) in
        let id j = field "id" j in
        (match List.sort (fun a b -> compare (id a) (id b)) responses with
        | [ batch; single ] -> (
            Alcotest.(check (list string)) "T, exact"
              [ "T"; "1"; "exact"; "exact" ]
              [ field "word" single; field "t_count" single; field "backend" single;
                field "source" single ];
            match Obs.Json.member "results" batch with
            | Some (Obs.Json.Arr [ quarter; a; b; zero ]) ->
                Alcotest.(check string) "pi/4 is T" "T" (field "word" quarter);
                Alcotest.(check string) "pi/4 answered exactly" "exact" (field "source" quarter);
                Alcotest.(check bool) "0.3 and 0.3+2pi: one word, one target" true
                  (word_of a = word_of b && field "target" a = "rz(0.3000000000)");
                Alcotest.(check (pair string string)) "-0.0 is the identity" ("", "rz(0.0000000000)")
                  (field "word" zero, field "target" zero)
            | _ -> Alcotest.fail "expected four batch results")
        | _ -> Alcotest.failf "expected 2 responses, got %d" (List.length responses));
        Alcotest.(check int) "one planner job" 1 (cval "obs.planner.jobs" - jobs0);
        Alcotest.(check (list string)) "ledger: the pair only" [ "fresh"; "replay" ]
          (List.sort compare (List.map (fun r -> r.Ledger.source) records)));
    Alcotest.test_case "a retried rotation gets one ledger record" `Quick (fun () ->
        (* TGATES_FAULTS='*=fail' serve_cli --ledger L --max-retries 3 *)
        let dead = { Robust.Fault.backend = "*"; mode = Robust.Fault.Fail; prob = 1.0 } in
        let responses, records =
          Test_metrics.recorded (fun () ->
              Robust.Fault.with_faults [ dead ] (fun () ->
                  let t, out =
                    make_server
                      ~cfg:
                        {
                          Server.default_config with
                          Server.max_retries = 3;
                          backoff_base_s = 0.001;
                          backoff_cap_s = 0.002;
                        }
                      ()
                  in
                  ignore (Server.submit_line t {|{"op":"rz","id":1,"theta":0.37}|});
                  Server.drain t;
                  out ()))
        in
        (match responses with
        | [ r ] -> Alcotest.(check bool) "retried 3 times" true (contains r {|"retries":3|})
        | rs -> Alcotest.failf "expected 1 response, got %d" (List.length rs));
        match records with
        | [ r ] ->
            Alcotest.(check bool) "the final execution's failure, every rung run" true
              ((not r.Ledger.ok) && r.Ledger.source = "fresh" && r.Ledger.request_id = "r1"
              && r.Ledger.attempts = List.length (Synth.rz_chain ()))
        | rs -> Alcotest.failf "expected 1 ledger record, got %d" (List.length rs));
    Alcotest.test_case "u3 requests get the engine's U3 words, from TRASYN" `Quick (fun () ->
        (* Haar-random targets: θ = acos(1 − 2u), φ and λ uniform in (−π, π). *)
        let st = Random.State.make [| 5 |] in
        let uniform () = Random.State.float st (2.0 *. Float.pi) -. Float.pi in
        let targets =
          List.init 5 (fun _ ->
              let th = Float.acos (1.0 -. (2.0 *. Random.State.float st 1.0)) in
              let ph = uniform () in
              (th, ph, uniform ()))
        in
        let cfg = Stream_compile.config ~ir:Settings.U3_ir ~epsilon:Server.default_config.epsilon () in
        let want =
          List.map
            (fun (th, ph, la) ->
              match Stream_compile.synthesize cfg (Qgate.U3 (th, ph, la)) with
              | Ok a -> Ctgate.seq_to_string a.Robust.word
              | Error f -> Alcotest.fail (Robust.failure_to_string f))
            targets
        in
        let u3 (th, ph, la) = Printf.sprintf {|"op":"u3","theta":%.17g,"phi":%.17g,"lam":%.17g|} th ph la in
        let t, out = make_server () in
        List.iteri (fun i g -> ignore (Server.submit_line t (Printf.sprintf {|{%s,"id":%d}|} (u3 g) i))) targets;
        ignore
          (Server.submit_line t
             (Printf.sprintf {|{"op":"batch","id":9,"requests":[%s]}|}
                (String.concat "," (List.map (fun g -> "{" ^ u3 g ^ "}") targets))));
        Server.drain t;
        let str k j =
          match Obs.Json.member k j with
          | Some (Obs.Json.Str s) -> s
          | _ -> Alcotest.failf "no %s in %s" k (Obs.Json.to_string j)
        in
        let id j = match Obs.Json.member "id" j with Some (Obs.Json.Num f) -> int_of_float f | _ -> -1 in
        let responses = List.map (fun l -> Result.get_ok (Obs.Json.parse l)) (out ()) in
        let check label want r =
          Alcotest.(check (pair string string)) label ("trasyn", want) (str "backend" r, str "word" r)
        in
        List.iteri
          (fun i want ->
            match List.find_opt (fun j -> id j = i) responses with
            | Some r -> check (Printf.sprintf "single %d" i) want r
            | None -> Alcotest.failf "no response %d" i)
          want;
        match List.find_opt (fun j -> id j = 9) responses with
        | Some b -> (
            match Obs.Json.member "results" b with
            | Some (Obs.Json.Arr rs) ->
                List.iteri (fun i (want, r) -> check (Printf.sprintf "batch %d" i) want r) (List.combine want rs)
            | _ -> Alcotest.fail "no batch results")
        | None -> Alcotest.fail "no batch response");
    Alcotest.test_case "a server with an invalid default epsilon is refused at create" `Quick
      (fun () ->
        List.iter
          (fun epsilon ->
            match Server.create ~emit:ignore { Server.default_config with epsilon } with
            | exception Invalid_argument _ -> ()
            | t ->
                Server.drain t;
                Alcotest.failf "created with epsilon %g" epsilon)
          [ 0.0; -0.1; Float.nan; Float.infinity ]);
    Alcotest.test_case "a request naming cliffordt-weighted is served" `Quick (fun () ->
        (* Its step-0 table is enumerated on first use; a pi/4 rotation
           is answered from it exactly. *)
        let t, out = make_server () in
        ignore
          (Server.submit_line t
             {|{"op":"rz","id":1,"theta":0.7853981633974483,"gate_set":"cliffordt-weighted"}|});
        ignore
          (Server.submit_line t
             ({|{"op":"batch","id":2,"requests":[{"op":"u3","theta":0,"phi":0,|}
             ^ {|"lam":0.7853981633974483,"gate_set":"cliffordt-weighted"}]}|}));
        Server.drain t;
        let responses = out () in
        Alcotest.(check int) "two responses" 2 (List.length responses);
        List.iter
          (fun r ->
            Alcotest.(check bool) ("an exact word under cliffordt-weighted: " ^ r) true
              (contains r {|"ok":true|}
              && contains r {|"backend":"exact"|}
              && contains r {|"gate_set":"cliffordt-weighted"|}))
          responses);
  ]
