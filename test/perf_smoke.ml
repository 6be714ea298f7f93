(* CI gate for the perf-trajectory layer, wired into @runtest:

   1. run the perf suite in smoke mode (tiny budgets, --jobs 2 so the
      planner's multi-domain path is exercised in CI) and check the
      emitted JSON validates against tgates-bench/v1 via tgates-trace;
      1b. its streaming phase keeps a bounded peak heap, and no phase
      reports "identical": false (a copy with one flag flipped must
      fail that check);
   2. `tgates-trace diff --fail-above 10` of the result against itself
      must exit 0 (zero regressions);
   3. a doctored copy with every wall time doubled must make the same
      diff exit nonzero — the regression gate actually fires;
   4. a compile_cli --trace run must yield a trace whose hotspot
      self-times sum to within 5% of the root span's wall time, whose
      `tgates-trace report`, minus its first line, is the report the
      run printed on stderr, and which names TRASYN's step-0 table
      build (a cliffordt.table.build span with max_t 10) instead of
      folding it into trasyn.synthesize's self time;
   5. a second, independent quick-suite run diffed against the first
      must pass a lenient regression threshold — the exact plumbing a
      real perf gate uses (two separate processes, two JSON files),
      exercised end-to-end in CI;
   6. a quick-suite run with the live metrics sampler attached must
      stream a loadable tgates-metrics/v1 file whose sampler overhead
      passes `tgates-trace metrics --max-overhead-pct 2` — the
      acceptance bound on sampler cost;
   7. compiling the same circuit with --ledger at --jobs 1 and --jobs 2
      must give `tgates-trace ledger` outputs that are byte-identical
      once wall-time lines are dropped — provenance aggregation is
      deterministic across domain counts.

   The suite runs get --serve-cli, so every gate's bench JSON carries
   the server_load phase (live serve_cli child over a socket) and the
   sampler-overhead bound of gate 6 covers request tracing too.

   The executables arrive as argv:
   BENCH_MAIN TRACE_CLI COMPILE_CLI SERVE_CLI. *)

let failf fmt = Printf.ksprintf (fun s -> prerr_endline ("perf_smoke: FAIL: " ^ s); exit 1) fmt
let command cmd = Sys.command cmd

let run_ok what cmd =
  let code = command cmd in
  if code <> 0 then failf "%s: exit %d: %s" what code cmd

(* Gates 5 and 6 measure wall-clock behaviour of whole child suites on
   whatever machine CI lands on; on a loaded or two-core box an honest
   run can trip their bounds.  Each attempt re-runs the workload from
   scratch, so a deterministic regression still fails every attempt —
   retries only absorb machine noise. *)
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

(* Double every "wall_s" (and per-phase quantile) leaf — the doctored
   2x-slower run of the acceptance criterion. *)
let rec slow_down = function
  | Obs.Json.Obj kvs ->
      Obs.Json.Obj
        (List.map
           (fun (k, v) ->
             match v with
             | Obs.Json.Num f
               when k = "wall_s" || k = "p50_s" || k = "p90_s" || k = "p95_s" || k = "p99_s"
                    || k = "p999_s" ->
                 (k, Obs.Json.Num (2.0 *. f))
             | _ -> (k, slow_down v))
           kvs)
  | Obs.Json.Arr xs -> Obs.Json.Arr (List.map slow_down xs)
  | j -> j

(* The phases whose "identical" flag reads false: a phase that checks
   its answer against another path and found them different. *)
let mismatched_phases j =
  match Obs.Json.member "phases" j with
  | Some (Obs.Json.Obj phases) ->
      List.filter_map
        (fun (name, p) ->
          match Obs.Json.member "identical" p with Some (Obs.Json.Bool false) -> Some name | _ -> None)
        phases
  | _ -> failf "bench JSON lacks phases"

(* Flip the first "identical" flag to false — the doctored copy that
   shows the identity gate fires. *)
let flip_first_identical j =
  let flipped = ref false in
  let rec go = function
    | Obs.Json.Obj kvs ->
        Obs.Json.Obj
          (List.map
             (fun (k, v) ->
               match v with
               | Obs.Json.Bool true when k = "identical" && not !flipped ->
                   flipped := true;
                   (k, Obs.Json.Bool false)
               | _ -> (k, go v))
             kvs)
    | j -> j
  in
  let doctored = go j in
  if not !flipped then failf "no phase of the bench JSON reports \"identical\"";
  doctored

let () =
  if Array.length Sys.argv < 5 then
    failf "usage: perf_smoke BENCH_MAIN TRACE_CLI COMPILE_CLI SERVE_CLI";
  let bench_main = Sys.argv.(1)
  and trace_cli = Sys.argv.(2)
  and compile_cli = Sys.argv.(3)
  and serve_cli = Sys.argv.(4) in
  let q = Filename.quote in
  let suite_cmd out extra =
    Printf.sprintf
      "%s --suite perf --quick --suite-budget 20 --jobs 2 --serve-cli %s --compile-cli %s \
       --bench-out %s%s >/dev/null 2>/dev/null"
      (q bench_main) (q serve_cli) (q compile_cli) (q out) extra
  in

  (* Gate 1: smoke perf run emits schema-valid JSON. *)
  let bench_json = Filename.temp_file "perf_smoke" ".json" in
  run_ok "perf suite" (suite_cmd bench_json "");
  run_ok "validate" (Printf.sprintf "%s validate %s >/dev/null" (q trace_cli) (q bench_json));

  (* Gate 1b: the streaming phase holds its bounded-memory contract.
     peak_ratio compares process peak heap ([obs.heap.peak_words]) at
     5x-apart input sizes: an O(input) pipeline would sit near 5, the
     windowed one must stay under 2. *)
  (match Obs.Json.parse (String.trim (read_file bench_json)) with
  | Error e -> failf "bench JSON does not parse: %s" e
  | Ok j ->
      let num path =
        let rec go j = function
          | [] -> ( match j with Obs.Json.Num f -> Some f | _ -> None)
          | k :: rest -> ( match Obs.Json.member k j with Some j' -> go j' rest | None -> None)
        in
        match go j path with
        | Some f -> f
        | None -> failf "bench JSON lacks %s" (String.concat "." path)
      in
      let sc k = num [ "phases"; "stream_compile"; k ] in
      if sc "gates_per_s" <= 0.0 then failf "stream_compile reports no throughput";
      if sc "peak_heap_words" <= 0.0 then failf "stream_compile big-run peak heap not sampled";
      if sc "small_peak_heap_words" <= 0.0 then failf "stream_compile small-run peak heap not sampled";
      let ratio = sc "peak_ratio" in
      if ratio > 2.0 then
        failf "stream_compile peak heap scales with input (ratio %.2f > 2 across a 5x size step)"
          ratio;
      (* Every phase that compares two paths (chain_reuse's cold and
         warm MPS, store_replay's cold and warm words) must report them
         identical; a doctored copy with one flag flipped must trip the
         same check. *)
      (match mismatched_phases j with
      | [] -> ()
      | names -> failf "phases report \"identical\": false: %s" (String.concat ", " names));
      if mismatched_phases (flip_first_identical j) = [] then
        failf "a copy with one \"identical\" flag flipped passed; the identity gate is inert");

  (* Gate 2: self-diff with the CI threshold is clean. *)
  run_ok "self diff"
    (Printf.sprintf "%s diff --fail-above 10 %s %s >/dev/null" (q trace_cli) (q bench_json)
       (q bench_json));

  (* Gate 3: the doctored 2x-slower copy trips the gate. *)
  let doctored = Filename.temp_file "perf_smoke_slow" ".json" in
  (match Obs.Json.parse (String.trim (read_file bench_json)) with
  | Error e -> failf "emitted JSON does not re-parse: %s" e
  | Ok j ->
      let oc = open_out doctored in
      output_string oc (Obs.Json.pretty (slow_down j));
      output_char oc '\n';
      close_out oc);
  let code =
    command
      (Printf.sprintf "%s diff --fail-above 10 %s %s >/dev/null" (q trace_cli) (q bench_json)
         (q doctored))
  in
  if code = 0 then failf "diff against the 2x-slower copy exited 0; the regression gate is inert";

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
  (* Gate 5: fresh run vs its own re-run through the regression gate.
     The threshold is deliberately loose (300%): smoke phases last
     milliseconds and their bucketed quantiles can jump a bucket or two
     between runs on a loaded machine; what this gate proves is that
     two honest runs of the same workload pass while the plumbing
     (flatten, key filter, exit code) runs end-to-end on real files. *)
  let bench_json2 = Filename.temp_file "perf_smoke_rerun" ".json" in
  retry_ok "re-run diff" (fun () ->
      run_ok "perf suite re-run" (suite_cmd bench_json2 "");
      let code =
        command
          (Printf.sprintf "%s diff --fail-above 300 %s %s >/dev/null" (q trace_cli) (q bench_json)
             (q bench_json2))
      in
      (* On a miss the skew can live in either file — the baseline dates
         from gate 1, possibly under very different machine load — so
         refresh it too and let the next attempt compare two runs taken
         under current conditions. *)
      if code <> 0 then run_ok "perf suite baseline refresh" (suite_cmd bench_json "");
      code);

  (* Gate 6: the sampler rides a quick suite and stays under the 2%
     overhead bound.  The suite itself runs for seconds while each tick
     walks a few dozen metrics, so the margin is wide; what the gate
     pins down is that sampler self-time is measured and exported at
     all, and that the stream survives the torn/duplicate-line checks
     in Metrics.load_stream. *)
  let metrics_jsonl = Filename.temp_file "perf_smoke_metrics" ".jsonl" in
  retry_ok "metrics overhead gate" (fun () ->
      run_ok "perf suite with sampler"
        (suite_cmd bench_json2 (Printf.sprintf " --metrics-out %s" (q metrics_jsonl)));
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
      bench_json; bench_json2; doctored; qasm; qasm7; trace; stderr_txt; report_txt; metrics_jsonl;
    ];
  print_endline "perf_smoke: OK"
