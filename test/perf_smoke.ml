(* CI gate for the perf-trajectory layer, wired into @runtest:

   1. `bench/main.exe --suite perf --quick` (every BENCHMARK.json
      workload at smoke size, untraced then traced, through the
      perfbench executable built beside it) writes a document that
      `tgates-trace validate` accepts, with one phase per workload;
      1b. two `compile_cli --stream` children over QAOA streams 5x
      apart keep a bounded peak heap: the big run's peak is at most
      twice the small run's, where an O(input) pipeline would sit
      near 5;
   2. `tgates-trace diff --fail-above 10` of the document against
      itself must exit 0 (zero regressions);
   3. a doctored copy with every lower metric doubled and every higher
      one halved must make the same diff exit nonzero, and a copy with
      only rate_per_s raised 50 % must pass it: the gate fires, and
      reads each metric in its own direction;
   4. a compile_cli --trace run must yield a trace whose hotspot
      self-times sum to within 5% of the root span's wall time, whose
      `tgates-trace report`, minus its first line, is the report the
      run printed on stderr, and which names TRASYN's step-0 table
      build (a cliffordt.table.build span with max_t 10) instead of
      folding it into trasyn.synthesize's self time;
   5. a second, independent quick run diffed against the first must
      pass a lenient threshold on the end-to-end metrics — the exact
      plumbing a real perf gate uses (two separate processes, two JSON
      files), exercised end-to-end in CI;
   6. a `compile_cli --stream --metrics-out` child must stream a
      loadable tgates-metrics/v1 file whose sampler overhead passes
      `tgates-trace metrics --max-overhead-pct 2` — the acceptance
      bound on sampler cost;
   7. compiling the same circuit with --ledger at --jobs 1 and --jobs 2
      must give `tgates-trace ledger` outputs that are byte-identical
      once wall-time lines are dropped — provenance aggregation is
      deterministic across domain counts.

   The arguments: BENCH_MAIN TRACE_CLI COMPILE_CLI BENCHMARK_JSON. *)

module J = Obs.Json

let failf fmt = Printf.ksprintf (fun s -> prerr_endline ("perf_smoke: FAIL: " ^ s); exit 1) fmt
let command cmd = Sys.command cmd

let run_ok what cmd =
  let code = command cmd in
  if code <> 0 then failf "%s: exit %d: %s" what code cmd

(* Gates 5 and 6 measure wall-clock behaviour of child runs on whatever
   machine CI lands on; on a loaded or two-core box an honest run can
   trip their bounds.  Each attempt re-runs the workload from scratch,
   so a deterministic regression still fails every attempt — retries
   only absorb machine noise. *)
let retry_ok ?(attempts = 3) what run_attempt =
  let rec go n =
    let code = run_attempt () in
    if code <> 0 then
      if n + 1 < attempts then begin
        Printf.eprintf "perf_smoke: note: %s: attempt %d/%d exited %d; retrying\n%!" what (n + 1)
          attempts code;
        go (n + 1)
      end
      else failf "%s: exit %d after %d attempts" what code attempts
  in
  go 0

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let read_json path =
  match J.parse (String.trim (read_file path)) with
  | Ok j -> j
  | Error e -> failf "%s does not parse: %s" path e

let write_json path j =
  let oc = open_out path in
  output_string oc (J.pretty j);
  output_char oc '\n';
  close_out oc

let names k j =
  let name x = match J.member "name" x with Some (J.Str n) -> Some n | _ -> None in
  match J.member k j with
  | Some (J.Arr xs) -> List.filter_map name xs
  | _ -> failf "BENCHMARK.json lacks %s" k

(* A copy of a bench document whose every metric value goes through
   [f group name value]; [None] drops the metric. *)
let map_metrics f doc =
  let metric g (name, e) =
    match (J.member "value" e, e) with
    | Some (J.Num v), J.Obj kvs ->
        Option.map (fun v -> (name, J.Obj (("value", J.Num v) :: List.remove_assoc "value" kvs))) (f g name v)
    | _ -> Some (name, e)
  in
  let group (k, v) =
    match v with
    | J.Obj ms when k = "lower" || k = "higher" -> (k, J.Obj (List.filter_map (metric k) ms))
    | _ -> (k, v)
  in
  let phase (w, p) = (w, match p with J.Obj kvs -> J.Obj (List.map group kvs) | _ -> p) in
  match doc with
  | J.Obj kvs ->
      J.Obj (List.map (function "phases", J.Obj ps -> ("phases", J.Obj (List.map phase ps)) | kv -> kv) kvs)
  | j -> j

let gen_qaoa gates =
  let path = Filename.temp_file "perf_smoke_qaoa" ".qasm" in
  let oc = open_out path in
  ignore (Generators.write_qaoa_stream ~seed:11 ~n:12 ~gates oc);
  close_out oc;
  path

let () =
  if Array.length Sys.argv < 5 then
    failf "usage: perf_smoke BENCH_MAIN TRACE_CLI COMPILE_CLI BENCHMARK_JSON";
  let bench_main = Sys.argv.(1)
  and trace_cli = Sys.argv.(2)
  and compile_cli = Sys.argv.(3)
  and spec = read_json Sys.argv.(4) in
  let q = Filename.quote in
  let suite_cmd out =
    Printf.sprintf "%s --suite perf --quick --bench-out %s >/dev/null 2>/dev/null" (q bench_main)
      (q out)
  in
  let diff_code ~fail_above before after =
    command
      (Printf.sprintf "%s diff --fail-above %g %s %s >/dev/null" (q trace_cli) fail_above (q before)
         (q after))
  in

  (* Gate 1: the quick suite writes a valid document, one phase per
     workload. *)
  let bench_json = Filename.temp_file "perf_smoke" ".json" in
  run_ok "perf suite" (suite_cmd bench_json);
  run_ok "validate" (Printf.sprintf "%s validate %s >/dev/null" (q trace_cli) (q bench_json));
  let doc = read_json bench_json in
  (match J.member "phases" doc with
  | Some (J.Obj ps) when List.map fst ps = names "workloads" spec -> ()
  | _ -> failf "the document's phases are not BENCHMARK.json's workloads");

  (* Gate 1b: the streaming engine holds its bounded-memory contract.
     Each child reports its process peak heap ([obs.heap.peak_words]);
     with O(window + queue + depth) state the 5,000-gate run's peak must
     sit close to the 1,000-gate run's. *)
  let stream_report gates =
    let qasm = gen_qaoa gates in
    let report = Filename.temp_file "perf_smoke_stream" ".report" in
    run_ok "stream compile"
      (Printf.sprintf
         "%s --input %s --stream --workflow gridsynth --epsilon 0.1 --window 64 --jobs 1 > %s \
          2>/dev/null"
         (q compile_cli) (q qasm) (q report));
    let rep = read_file report in
    Sys.remove qasm;
    Sys.remove report;
    let scan fmt =
      List.find_map
        (fun line ->
          try Some (Scanf.sscanf line fmt Fun.id)
          with Scanf.Scan_failure _ | Failure _ | End_of_file -> None)
        (String.split_on_char '\n' rep)
    in
    match (scan "gates/sec: %f", scan "peak heap: %f words") with
    | Some rate, Some peak when rate > 0.0 && peak > 0.0 -> peak
    | _ -> failf "the %d-gate stream report has no throughput or peak heap:\n%s" gates rep
  in
  let small_peak = stream_report 1_000 and big_peak = stream_report 5_000 in
  if big_peak > 2.0 *. small_peak then
    failf "stream peak heap scales with input (%.0f words at 5,000 gates, %.0f at 1,000: %.2f > 2)"
      big_peak small_peak (big_peak /. small_peak);

  (* Gate 2: self-diff with the CI threshold is clean. *)
  if diff_code ~fail_above:10.0 bench_json bench_json <> 0 then
    failf "the self diff found a regression";

  (* Gate 3: the doctored copies — every metric worse by 2x trips the
     gate; a faster rate alone does not. *)
  let doctored = Filename.temp_file "perf_smoke_doctored" ".json" in
  let worse g _ v = Some (if g = "lower" then 2.0 *. v else v /. 2.0) in
  write_json doctored (map_metrics worse doc);
  if diff_code ~fail_above:10.0 bench_json doctored = 0 then
    failf "diff against the 2x-worse copy exited 0; the regression gate is inert";
  let faster _ name v = Some (if name = "rate_per_s" then 1.5 *. v else v) in
  write_json doctored (map_metrics faster doc);
  if diff_code ~fail_above:10.0 bench_json doctored <> 0 then
    failf "diff against a copy with a 50%% higher rate_per_s failed; the gate reads rates backwards";

  (* Gate 4: hotspot self-times on a real compile trace account for the
     root span's wall time.  --jobs 1 keeps synthesis on the calling
     domain: with worker domains the planner's job spans overlap in
     wall time and a self-time sum is no longer comparable to it. *)
  let qasm = Filename.temp_file "perf_smoke" ".qasm" in
  let oc = open_out qasm in
  output_string oc
    "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0];\nrz(0.37) q[0];\ncx q[0],q[1];\nrz(1.1) q[1];\n";
  close_out oc;
  let trace = Filename.temp_file "perf_smoke" ".jsonl" in
  let stderr_txt = Filename.temp_file "perf_smoke_stderr" ".txt" in
  let report_txt = Filename.temp_file "perf_smoke_report" ".txt" in
  run_ok "compile"
    (Printf.sprintf "%s --input %s --jobs 1 --trace %s >/dev/null 2>%s" (q compile_cli) (q qasm)
       (q trace) (q stderr_txt));
  run_ok "hotspots renders" (Printf.sprintf "%s hotspots --top 5 %s >/dev/null" (q trace_cli) (q trace));
  run_ok "report renders"
    (Printf.sprintf "%s report %s >%s" (q trace_cli) (q trace) (q report_txt));
  (* The trace explains the run as the run did: its metric lines hold
     the values the run's own end-of-run report was printed from. *)
  let rec from_header = function
    | l :: _ as ls when String.starts_with ~prefix:"== observability report" l -> ls
    | _ :: ls -> from_header ls
    | [] -> []
  in
  let printed = from_header (String.split_on_char '\n' (read_file stderr_txt)) in
  (match String.split_on_char '\n' (read_file report_txt) with
  | _ :: rendered when printed <> [] && rendered = printed -> ()
  | _ ->
      failf
        "tgates-trace report differs from the report compile_cli printed:\n\
         --- stderr ---\n%s\n--- report ---\n%s"
        (read_file stderr_txt) (read_file report_txt));
  (match Trace_analysis.load trace with
  | Error e -> failf "compile trace does not load: %s" e
  | Ok tr ->
      (match Trace_analysis.tree tr with
      | [ root ] ->
          if root.Trace_analysis.span.Trace_analysis.name <> "cli.compile" then
            failf "root span is %S, expected cli.compile" root.Trace_analysis.span.Trace_analysis.name
      | roots -> failf "expected a single root span, got %d" (List.length roots));
      if
        not
          (List.exists
             (fun (sp : Trace_analysis.span) ->
               sp.Trace_analysis.name = "cliffordt.table.build"
               && List.assoc_opt "max_t" sp.Trace_analysis.attrs = Some "10")
             tr.Trace_analysis.spans)
      then failf "compile trace has no cliffordt.table.build span with max_t 10";
      let wall = Trace_analysis.total_wall tr in
      let self_sum =
        List.fold_left
          (fun a h -> a +. h.Trace_analysis.self_s)
          0.0 (Trace_analysis.hotspots tr)
      in
      if Float.abs (self_sum -. wall) > 0.05 *. wall then
        failf "hotspot self-times sum to %.6fs but the root spans %.6fs (off by more than 5%%)"
          self_sum wall);
  (* Gate 5: fresh run vs its own re-run through the regression gate,
     on the end-to-end metrics that BENCHMARK.json bounds.  The
     threshold is deliberately loose (300%): what this gate proves is
     that two honest runs of the same workloads pass while the plumbing
     (flatten, directions, exit code) runs end-to-end on real files.
     The per-layer metrics of one-second smoke runs are diagnostic and
     swing by more than that between honest runs (the trace overhead
     and the remainders that are differences of timers cross zero), so
     they stay out of this gate. *)
  let end_to_end = names "end_to_end" spec in
  let e2e path =
    let copy = Filename.temp_file "perf_smoke_e2e" ".json" in
    let keep _ name v = if List.mem name end_to_end then Some v else None in
    write_json copy (map_metrics keep (read_json path));
    copy
  in
  let bench_json2 = Filename.temp_file "perf_smoke_rerun" ".json" in
  retry_ok "re-run diff" (fun () ->
      run_ok "perf suite re-run" (suite_cmd bench_json2);
      let before = e2e bench_json and after = e2e bench_json2 in
      let code = diff_code ~fail_above:300.0 before after in
      List.iter Sys.remove [ before; after ];
      (* On a miss the skew can live in either file — the baseline dates
         from gate 1, possibly under very different machine load — so
         refresh it too and let the next attempt compare two runs taken
         under current conditions. *)
      if code <> 0 then run_ok "perf suite baseline refresh" (suite_cmd bench_json);
      code);

  (* Gate 6: the live sampler rides a streamed compile and stays under
     the 2% overhead bound.  Each tick walks a few dozen metrics; what
     the gate pins down is that sampler self-time is measured and
     exported at all, and that the stream survives the torn/duplicate
     -line checks in Metrics.load_stream. *)
  let metrics_jsonl = Filename.temp_file "perf_smoke_metrics" ".jsonl" in
  let qasm6 = gen_qaoa 100_000 in
  retry_ok "metrics overhead gate" (fun () ->
      run_ok "stream compile with sampler"
        (Printf.sprintf
           "%s --input %s --stream --workflow gridsynth --epsilon 0.1 --jobs 1 --metrics-out %s \
            >/dev/null 2>/dev/null"
           (q compile_cli) (q qasm6) (q metrics_jsonl));
      command
        (Printf.sprintf
           "%s metrics --max-overhead-pct 2 --require-series synth.rotations \
            --require-series obs.heap.words %s >/dev/null"
           (q trace_cli) (q metrics_jsonl)));

  (* Gate 7: per-backend ledger aggregates are bit-identical across
     --jobs 1 and --jobs 2 once wall-time lines (the only
     schedule-dependent figures) are dropped. *)
  let qasm7 = Filename.temp_file "perf_smoke_ledger" ".qasm" in
  let oc = open_out qasm7 in
  output_string oc
    "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nrz(0.37) q[0];\nrz(1.1) q[1];\nrz(0.37) q[1];\ncx q[0],q[1];\nrz(0.37) q[0];\nrz(2.3) q[1];\n";
  close_out oc;
  let ledger_stats jobs =
    let ledger = Filename.temp_file (Printf.sprintf "perf_smoke_ledger_j%d" jobs) ".jsonl" in
    let out = Filename.temp_file (Printf.sprintf "perf_smoke_ledger_j%d" jobs) ".txt" in
    run_ok
      (Printf.sprintf "ledger compile --jobs %d" jobs)
      (Printf.sprintf "%s --input %s --jobs %d --ledger %s >/dev/null 2>/dev/null" (q compile_cli)
         (q qasm7) jobs (q ledger));
    run_ok
      (Printf.sprintf "ledger stats --jobs %d" jobs)
      (Printf.sprintf "%s ledger %s > %s" (q trace_cli) (q ledger) (q out));
    let stats = read_file out in
    List.iter Sys.remove [ ledger; out ];
    (* Drop wall-time lines; everything else must match bit-for-bit. *)
    String.split_on_char '\n' stats
    |> List.filter (fun line ->
           let t = String.trim line in
           not (String.length t >= 4 && String.sub t 0 4 = "wall"))
    |> String.concat "\n"
  in
  let stats1 = ledger_stats 1 and stats2 = ledger_stats 2 in
  if stats1 <> stats2 then
    failf "ledger aggregates differ between --jobs 1 and --jobs 2:\n--- jobs 1 ---\n%s\n--- jobs 2 ---\n%s"
      stats1 stats2;
  if stats1 = "" then failf "ledger aggregate output is empty";

  List.iter Sys.remove
    [
      bench_json; bench_json2; doctored; qasm; qasm6; qasm7; trace; stderr_txt; report_txt; metrics_jsonl;
    ];
  print_endline "perf_smoke: OK"
