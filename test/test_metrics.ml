(* The telemetry layer: provenance ledger (JSONL round trip,
   order-independent aggregation) and the live metrics sampler (stream
   integrity under a multi-domain planner run, exposition syntax). *)

(* Run [f] with the ledger on a fresh sink: its result, and the records
   it wrote, read back through [Ledger.load]. *)
let recorded f =
  let path = Filename.temp_file "test_ledger" ".jsonl" in
  Ledger.to_file path;
  Fun.protect ~finally:(fun () ->
      Ledger.close ();
      Sys.remove path)
  @@ fun () ->
  let v = f () in
  Ledger.close ();
  match Ledger.load path with Ok rs -> (v, rs) | Error e -> Alcotest.failf "ledger: %s" e

let mkrec ?(backend = "trasyn") ?(cached = false) ?(ok = true) ?(distance = 1e-3)
    ?(wall_s = 0.01) ?(t_count = 12) i =
  {
    Ledger.target = Printf.sprintf "rz(%.10f)" (0.1 *. float_of_int i);
    gate_set = "cliffordt";
    chain = "u3";
    eps_req = 0.07;
    rung_eps = 0.07;
    distance;
    backend;
    fallbacks = 0;
    attempts = 1;
    t_count;
    word_len = t_count * 2;
    wall_s;
    degraded = false;
    cached;
    source = (if cached then "replay" else "fresh");
    ok;
    failure = (if ok then None else Some "timeout");
    request_id = "";
  }

let ledger_tests =
  [
    Alcotest.test_case "JSONL sink round-trips" `Quick (fun () ->
        let written =
          [
            mkrec 1;
            mkrec ~backend:"gridsynth" ~cached:true ~wall_s:0.0 2;
            (* Failed record: nan distance must survive the trip. *)
            mkrec ~backend:"failed" ~ok:false ~distance:nan ~t_count:0 3;
          ]
        in
        let (), read = recorded (fun () -> List.iter Ledger.record written) in
        (* [compare] treats nan = nan, unlike [=]. *)
        Alcotest.(check bool) "records round-trip" true (compare written read = 0));
    Alcotest.test_case "load rejects a file without the meta line" `Quick (fun () ->
        let path = Filename.temp_file "test_ledger_nometa" ".jsonl" in
        let oc = open_out path in
        output_string oc (Obs.Json.to_string (Ledger.record_to_json (mkrec 1)) ^ "\n");
        close_out oc;
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            match Ledger.load path with
            | Error _ -> ()
            | Ok _ -> Alcotest.fail "meta-less ledger loaded"));
    Alcotest.test_case "load errors name the file once" `Quick (fun () ->
        (* Ledger.load and Metrics.load_stream: a missing meta line and a
           bad line each name the file exactly once. *)
        let occurrences sub s =
          let n = String.length s and m = String.length sub in
          let rec go i acc =
            if i + m > n then acc else go (i + 1) (if String.sub s i m = sub then acc + 1 else acc)
          in
          go 0 0
        in
        let rotation = Obs.Json.to_string (Ledger.record_to_json (mkrec 1)) in
        let snapshot seq = Printf.sprintf {|{"ev":"snapshot","seq":%d,"t":0.5}|} seq in
        List.iter
          (fun (what, lines, load, line) ->
            let path = Filename.temp_file "test_load_error" ".jsonl" in
            Out_channel.with_open_bin path (fun oc ->
                List.iter (fun l -> output_string oc (l ^ "\n")) lines);
            let r = load path in
            Sys.remove path;
            match r with
            | Ok () -> Alcotest.failf "%s: loaded" what
            | Error e ->
                Alcotest.(check int) (what ^ ": the path once in " ^ e) 1 (occurrences path e);
                Alcotest.(check bool) (what ^ ": the line in " ^ e) true
                  (line = "" || occurrences (path ^ ": line " ^ line ^ ": ") e = 1))
          [
            ("ledger without meta", [ rotation ], (fun p -> Result.map ignore (Ledger.load p)), "");
            ( "ledger unknown event",
              [ {|{"ev":"meta","schema":"tgates-ledger/v1"}|}; rotation; {|{"ev":"other"}|} ],
              (fun p -> Result.map ignore (Ledger.load p)),
              "3" );
            ( "stream without meta",
              [ snapshot 1 ],
              (fun p -> Result.map ignore (Metrics.load_stream p)),
              "" );
            ( "stream out of order",
              [ {|{"ev":"meta","schema":"tgates-metrics/v1"}|}; snapshot 2; snapshot 1 ],
              (fun p -> Result.map ignore (Metrics.load_stream p)),
              "3" );
          ]);
    Alcotest.test_case "stats are arrival-order independent" `Quick (fun () ->
        (* The same multiset in two orders — what --jobs 1 and --jobs N
           produce — must aggregate bit-identically, wall times and all
           float accumulations included. *)
        let rs =
          List.init 20 (fun i ->
              mkrec
                ~backend:(if i mod 3 = 0 then "gridsynth" else "trasyn")
                ~distance:(1e-4 *. float_of_int (i + 1))
                ~wall_s:(0.001 *. float_of_int (i + 1))
                ~t_count:(10 + i) i)
        in
        let shuffled =
          let rng = Random.State.make [| 99 |] in
          List.map (fun r -> (Random.State.bits rng, r)) rs
          |> List.sort compare |> List.map snd
        in
        Alcotest.(check bool)
          "same aggregates" true
          (compare (Ledger.stats rs) (Ledger.stats shuffled) = 0);
        Alcotest.(check int) "two backends" 2 (List.length (Ledger.stats rs)));
  ]

let metrics_tests =
  [
    Alcotest.test_case "sampler under a 2-domain planner run" `Quick (fun () ->
        let stream = Filename.temp_file "test_metrics" ".jsonl" in
        Fun.protect
          ~finally:(fun () -> Sys.remove stream)
          (fun () ->
            Metrics.start ~interval:0.01 ~stream ();
            Alcotest.(check bool) "running" true (Metrics.running ());
            (* 16 jobs x ~4ms across 2 domains: both workers stay busy
               long enough for their busy_s gauges to accumulate. *)
            let plan =
              Planner.plan (List.init 16 (fun i -> (string_of_int i, ())))
            in
            let table =
              Planner.execute ~jobs:2
                ~run:(fun ~deadline:_ () ->
                  Unix.sleepf 0.004;
                  Ok ())
                plan
            in
            Alcotest.(check int) "all jobs ran" 16 (Hashtbl.length table);
            Metrics.stop ();
            Alcotest.(check bool) "stopped" false (Metrics.running ());
            Metrics.stop ();
            (* load_stream rejects torn lines and duplicate/out-of-order
               seq, so a clean Ok is the no-corruption proof. *)
            match Metrics.load_stream stream with
            | Error e -> Alcotest.failf "stream: %s" e
            | Ok snaps ->
                Alcotest.(check bool) "snapshots taken" true (List.length snaps >= 1);
                let last = List.nth snaps (List.length snaps - 1) in
                let busy i =
                  match
                    List.assoc_opt (Printf.sprintf "obs.planner.domain.%d.busy_s" i) last.Metrics.gauges
                  with
                  | Some v -> v
                  | None -> Alcotest.failf "no busy_s gauge for domain %d" i
                in
                Alcotest.(check bool) "domain 0 was busy" true (busy 0 > 0.0);
                Alcotest.(check bool) "domain 1 was busy" true (busy 1 > 0.0);
                let names = Metrics.series_names snaps in
                List.iter
                  (fun n ->
                    Alcotest.(check bool) (n ^ " present") true (List.mem n names))
                  [ "obs.heap.words"; "obs.metrics.sampler_wall_s" ]));
    Alcotest.test_case "derived utilization series appear across ticks" `Quick (fun () ->
        let stream = Filename.temp_file "test_metrics_util" ".jsonl" in
        Fun.protect
          ~finally:(fun () -> Sys.remove stream)
          (fun () ->
            (* The utilization series is a per-tick delta, so it needs
               two snapshots with planner work in between. *)
            Metrics.start ~interval:0.01 ~stream ();
            let plan = Planner.plan (List.init 12 (fun i -> (string_of_int i, ()))) in
            ignore
              (Planner.execute ~jobs:2
                 ~run:(fun ~deadline:_ () ->
                   Unix.sleepf 0.01;
                   Ok ())
                 plan);
            Unix.sleepf 0.03;
            Metrics.stop ();
            match Metrics.load_stream stream with
            | Error e -> Alcotest.failf "stream: %s" e
            | Ok snaps ->
                let names = Metrics.series_names snaps in
                Alcotest.(check bool)
                  "domain 0 utilization series" true
                  (List.mem "obs.planner.domain.0.utilization" names)));
    Alcotest.test_case "sampler concurrent with a loaded multi-domain server" `Quick (fun () ->
        (* The sampler ticks while a server pushes singles and a batch
           through planner worker domains: the stream must stay valid
           JSONL (no torn/duplicate lines), the request counter must
           reconcile with the responses sent, and stop() must join the
           sampler cleanly after the server has drained. *)
        let stream = Filename.temp_file "test_metrics_server" ".jsonl" in
        Fun.protect
          ~finally:(fun () -> Sys.remove stream)
          (fun () ->
            let requests0 = Obs.counter_value (Obs.counter "server.requests") in
            Metrics.start ~interval:0.01 ~stream ();
            let out = ref [] in
            let m = Mutex.create () in
            let emit s =
              Mutex.lock m;
              out := s :: !out;
              Mutex.unlock m
            in
            let cfg = { Server.default_config with Server.planner_jobs = Some 2 } in
            let t = Server.create ~emit cfg in
            for i = 0 to 7 do
              ignore
                (Server.submit_line t
                   (Printf.sprintf {|{"op":"rz","id":%d,"theta":%f,"epsilon":0.3}|} i
                      (0.1 +. (0.2 *. float_of_int i))))
            done;
            ignore
              (Server.submit_line t
                 {|{"op":"batch","id":100,"requests":[{"op":"rz","theta":0.5,"epsilon":0.3},{"op":"rz","theta":1.3,"epsilon":0.3}]}|});
            ignore (Server.submit_line t {|{"op":"stats","id":101}|});
            Server.drain t;
            Metrics.stop ();
            Alcotest.(check bool) "sampler joined" false (Metrics.running ());
            Alcotest.(check int) "one response per request" 10 (List.length !out);
            Alcotest.(check int)
              "request counter reconciles" 10
              (Obs.counter_value (Obs.counter "server.requests") - requests0);
            match Metrics.load_stream stream with
            | Error e -> Alcotest.failf "stream under server load: %s" e
            | Ok snaps ->
                Alcotest.(check bool) "snapshots taken" true (List.length snaps >= 1)));
    Alcotest.test_case "exposition parses; garbage does not" `Quick (fun () ->
        ignore (Obs.counter "test.metrics.exposition");
        (match Metrics.parse_exposition (Metrics.exposition ()) with
        | Error e -> Alcotest.failf "own exposition rejected: %s" e
        | Ok n -> Alcotest.(check bool) "has samples" true (n > 0));
        match Metrics.parse_exposition "tgates_x{ 1.0\nnot a line\n" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "garbage exposition accepted");
  ]

let suite = ledger_tests @ metrics_tests
