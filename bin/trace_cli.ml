(* tgates-trace: turn Obs JSONL traces (and tgates-bench BENCH_*.json
   documents) into decisions.

     dune exec bin/trace_cli.exe -- report trace.jsonl
     dune exec bin/trace_cli.exe -- hotspots --top 15 trace.jsonl
     dune exec bin/trace_cli.exe -- flame trace.jsonl | flamegraph.pl > out.svg
     dune exec bin/trace_cli.exe -- diff --fail-above 10 BENCH_0.json BENCH_1.json
     dune exec bin/trace_cli.exe -- validate BENCH_0.json

   Exit codes: 0 ok; 1 unreadable/malformed input, invalid bench JSON,
   or (for diff with --fail-above) a regression beyond the threshold. *)

open Cmdliner

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("tgates-trace: " ^ s); 1) fmt

let with_trace path k =
  match Trace_analysis.load path with Error e -> fail "%s" e | Ok tr -> k tr

let report_cmd =
  let run path = with_trace path (fun tr -> Trace_analysis.render_report stdout tr; 0) in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE") in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "the span count and wall time of a trace, then the end-of-run report the traced run \
          printed (counters, hit rates, per-call rates, gauges, spans, histograms)")
    Term.(const run $ path)

let hotspots_cmd =
  let run top path =
    with_trace path (fun tr ->
        Trace_analysis.render_hotspots ?top Format.std_formatter tr;
        0)
  in
  let top =
    Arg.(value & opt (some int) None & info [ "top" ] ~docv:"K" ~doc:"show only the top $(docv) spans")
  in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE") in
  Cmd.v
    (Cmd.info "hotspots"
       ~doc:
         "spans ranked by self-time (time not attributed to child spans), with inclusive time and \
          minor-heap allocation; the self-times sum to the run's wall time")
    Term.(const run $ top $ path)

let flame_cmd =
  let run path = with_trace path (fun tr -> Trace_analysis.render_flame Format.std_formatter tr; 0) in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE") in
  Cmd.v
    (Cmd.info "flame"
       ~doc:
         "folded-stacks output (span path, self-time in microseconds) for flamegraph.pl")
    Term.(const run $ path)

let diff_cmd =
  let run fail_above before after =
    match Trace_analysis.load_source before, Trace_analysis.load_source after with
    | Error e, _ | _, Error e -> fail "%s" e
    | Ok b, Ok a ->
        (* Name the inputs: BENCH_<n>.json vs BENCH_<n>_rerun.json mixups
           are invisible once the numbers are on screen. *)
        Format.printf "diff: before=%s after=%s@." before after;
        let deltas = Trace_analysis.diff ~before:b ~after:a in
        Trace_analysis.render_diff ?fail_above Format.std_formatter deltas;
        (match fail_above with
        | Some pct when Trace_analysis.regressions ~fail_above:pct deltas <> [] -> 1
        | _ -> 0)
  in
  let fail_above =
    Arg.(
      value
      & opt (some float) None
      & info [ "fail-above" ] ~docv:"PCT"
          ~doc:
            "exit nonzero when any directed series got worse by more than $(docv) percent (a bench \
             metric by its lower/higher group; a trace's time, T-count and GC series by name) — the \
             CI gate")
  in
  let before = Arg.(required & pos 0 (some file) None & info [] ~docv:"BEFORE") in
  let after = Arg.(required & pos 1 (some file) None & info [] ~docv:"AFTER") in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "compare two runs — JSONL traces or BENCH_*.json documents — series by series")
    Term.(const run $ fail_above $ before $ after)

let validate_cmd =
  let run path =
    match Trace_analysis.load_source path with
    | Error e -> fail "%s" e
    | Ok (Trace_analysis.Trace _) -> fail "%s: not a %s document" path Trace_analysis.bench_schema
    | Ok (Trace_analysis.Bench j) -> (
        match Trace_analysis.validate_bench j with
        | Ok () ->
            Printf.printf "%s: valid %s\n" path Trace_analysis.bench_schema;
            0
        | Error errs ->
            List.iter (fun e -> Printf.eprintf "tgates-trace: %s: %s\n" path e) errs;
            1)
  in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"BENCH_JSON") in
  Cmd.v
    (Cmd.info "validate" ~doc:"check a BENCH_*.json file against the tgates-bench/v2 schema")
    Term.(const run $ path)

let metrics_cmd =
  let run max_overhead require path =
    match Metrics.load_stream path with
    | Error e -> fail "%s" e
    | Ok snaps -> (
        Metrics.render_stream Format.std_formatter snaps;
        let names = Metrics.series_names snaps in
        let missing = List.filter (fun n -> not (List.mem n names)) require in
        if missing <> [] then fail "missing series: %s" (String.concat ", " missing)
        else
          match max_overhead with
          | Some pct when Metrics.overhead_pct snaps > pct ->
              fail "sampler overhead %.3f%% exceeds the %.3f%% gate" (Metrics.overhead_pct snaps)
                pct
          | _ -> 0)
  in
  let max_overhead =
    Arg.(
      value
      & opt (some float) None
      & info [ "max-overhead-pct" ] ~docv:"PCT"
          ~doc:
            "exit nonzero when the sampler's self-time exceeds $(docv) percent of the stream's \
             covered wall time — the CI gate on sampler overhead")
  in
  let require =
    Arg.(
      value
      & opt_all string []
      & info [ "require-series" ] ~docv:"NAME"
          ~doc:"exit nonzero unless the stream carries this series (repeatable)")
  in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"METRICS_JSONL") in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "validate and render a tgates-metrics/v1 stream: snapshot timeline (rotations/sec, heap, \
          planner utilization), torn/duplicate-line detection, sampler-overhead gating")
    Term.(const run $ max_overhead $ require $ path)

let requests_cmd =
  let run slowest fail_above expect path =
    with_trace path (fun tr ->
        let rs = Trace_analysis.requests tr in
        Trace_analysis.render_requests ~slowest Format.std_formatter tr;
        match expect with
        | Some n when List.length rs <> n ->
            fail "expected %d requests, found %d" n (List.length rs)
        | _ -> (
            match fail_above with
            | None -> 0
            | Some thr -> (
                match
                  List.filter (fun r -> r.Trace_analysis.rq_latency_s > thr) rs
                with
                | [] -> 0
                | over ->
                    List.iter
                      (fun r ->
                        Printf.eprintf "tgates-trace: request %s latency %.6fs exceeds %.6fs\n"
                          r.Trace_analysis.rq_id r.Trace_analysis.rq_latency_s thr)
                      over;
                    1)))
  in
  let slowest =
    Arg.(
      value & opt int 1
      & info [ "slowest" ] ~docv:"K"
          ~doc:"render the span waterfall of the $(docv) highest-latency requests (0 disables)")
  in
  let fail_above =
    Arg.(
      value
      & opt (some float) None
      & info [ "fail-above" ] ~docv:"SECONDS"
          ~doc:"exit nonzero when any request's latency exceeds $(docv) seconds — the CI gate on \
                tail latency")
  in
  let expect =
    Arg.(
      value
      & opt (some int) None
      & info [ "expect-requests" ] ~docv:"N"
          ~doc:"exit nonzero unless the trace carries exactly $(docv) requests")
  in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE") in
  Cmd.v
    (Cmd.info "requests"
       ~doc:
         "reassemble a server trace into per-request waterfalls: one latency-table row per wire \
          request (req.trace/req.id span attributes are the grouping key, so spans emitted on \
          planner worker domains fold back under their request), plus the slowest requests' span \
          waterfalls and a tail-latency CI gate")
    Term.(const run $ slowest $ fail_above $ expect $ path)

let ledger_cmd =
  let run expect paths =
    let loaded = List.map Ledger.load paths in
    match List.find_map (function Error e -> Some e | Ok _ -> None) loaded with
    | Some e -> fail "%s" e
    | None -> (
        let records = List.concat_map (function Ok rs -> rs | Error _ -> []) loaded in
        Ledger.render_stats Format.std_formatter records;
        match expect with
        | Some n when List.length records <> n ->
            fail "expected %d records, found %d" n (List.length records)
        | _ -> 0)
  in
  let expect =
    Arg.(
      value
      & opt (some int) None
      & info [ "expect-records" ] ~docv:"N"
          ~doc:
            "exit nonzero unless the ledger(s) hold exactly $(docv) records — the completeness \
             gate (one record per synthesized rotation)")
  in
  let paths = Arg.(non_empty & pos_all file [] & info [] ~docv:"LEDGER_JSONL") in
  Cmd.v
    (Cmd.info "ledger"
       ~doc:
         "aggregate tgates-ledger/v1 provenance files into per-backend T-count/ε distributions; \
          deterministic output (wall-time lines excepted), so --jobs 1 and --jobs N runs compare \
          bit-identically")
    Term.(const run $ expect $ paths)

let cmd =
  Cmd.group
    (Cmd.info "tgates-trace" ~doc:"analyze Obs JSONL traces and BENCH_*.json perf baselines")
    [
      report_cmd; hotspots_cmd; flame_cmd; diff_cmd; validate_cmd; metrics_cmd; requests_cmd;
      ledger_cmd;
    ]

let () = exit (Cmd.eval' cmd)
