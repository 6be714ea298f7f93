(* CI gate for the live-telemetry layer, wired into @runtest: drive a
   real compile_cli run with the metrics sampler, the Prometheus
   exposition and the provenance ledger all enabled, then hold the
   artifacts to their contracts:

   1. the metrics JSONL stream loads (meta line, strictly increasing
      seq — no torn or duplicated lines) and is non-empty;
   2. the exposition file parses as Prometheus text and carries samples;
   3. the ledger record count equals the "summed over N rotations"
      figure compile_cli reports — one provenance record per rotation
      occurrence, cached replays and degraded fallbacks included.  A
      second run under --faults (every trasyn call fails, forcing the
      fallback ladder) must balance the same books;
   4. TGATES_METRICS without the flags arms the sampler in compile_cli
      and in serve_cli (reading an empty stdin): each exits 0, and
      `tgates-trace metrics` loads the stream it wrote.

   The executables arrive as argv: COMPILE_CLI SERVE_CLI TRACE_CLI. *)

let failf fmt = Printf.ksprintf (fun s -> prerr_endline ("metrics_smoke: FAIL: " ^ s); exit 1) fmt

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* The compile report line "synth err: ... summed over N rotations". *)
let rotations_of_report out =
  let n = ref None in
  List.iter
    (fun line ->
      try Scanf.sscanf line "synth err: %f summed over %d rotations" (fun _ r -> n := Some r)
      with Scanf.Scan_failure _ | Failure _ | End_of_file -> ())
    (String.split_on_char '\n' out);
  match !n with
  | Some r -> r
  | None -> failf "compile report has no 'summed over N rotations' line:\n%s" out

let check_run ~what ~compile_cli ~qasm ~extra_flags =
  let q = Filename.quote in
  let stream = Filename.temp_file "metrics_smoke" ".jsonl" in
  let prom = Filename.temp_file "metrics_smoke" ".prom" in
  let ledger = Filename.temp_file "metrics_smoke" ".ledger" in
  let out = Filename.temp_file "metrics_smoke" ".out" in
  let cmd =
    Printf.sprintf
      "%s --input %s --jobs 2 %s --metrics-out %s --metrics-interval 0.02 --prom-out %s \
       --ledger %s > %s 2>/dev/null"
      (q compile_cli) (q qasm) extra_flags (q stream) (q prom) (q ledger) (q out)
  in
  if Sys.command cmd <> 0 then failf "%s: compile exited nonzero: %s" what cmd;
  let rotations = rotations_of_report (read_file out) in

  (* 1. Stream integrity. *)
  (match Metrics.load_stream stream with
  | Error e -> failf "%s: metrics stream: %s" what e
  | Ok [] -> failf "%s: metrics stream is empty" what
  | Ok snaps ->
      let last = List.nth snaps (List.length snaps - 1) in
      if not (List.mem_assoc "obs.ledger.records" last.Metrics.counters) then
        failf "%s: final snapshot has no obs.ledger.records counter" what);

  (* 2. Exposition syntax. *)
  (match Metrics.parse_exposition (read_file prom) with
  | Error e -> failf "%s: exposition: %s" what e
  | Ok n when n <= 0 -> failf "%s: exposition has no samples" what
  | Ok _ -> ());

  (* 3. Ledger completeness: one record per synthesized rotation. *)
  (match Ledger.load ledger with
  | Error e -> failf "%s: ledger: %s" what e
  | Ok records ->
      if List.length records <> rotations then
        failf "%s: ledger holds %d records but the compile synthesized %d rotations" what
          (List.length records) rotations;
      if not (List.exists (fun r -> r.Ledger.cached) records) then
        failf "%s: no cached replay records despite repeated angles" what;
      List.iter
        (fun (r : Ledger.record) ->
          if r.Ledger.ok && r.Ledger.t_count < 0 then failf "%s: negative t_count" what)
        records;
      if what = "faulted"
         && not (List.exists (fun r -> r.Ledger.degraded && not r.Ledger.cached) records)
      then failf "%s: fault injection produced no degraded fresh record" what);
  List.iter Sys.remove [ stream; prom; ledger; out ]

(* 4. The environment variable alone, on a binary that starts the
   sampler from its start-up code. *)
let check_env ~what ~trace_cli cmd =
  let q = Filename.quote in
  let stream = Filename.temp_file "metrics_smoke" ".env.jsonl" in
  Sys.remove stream;
  let code =
    Sys.command
      (Printf.sprintf "TGATES_METRICS=%s TGATES_METRICS_INTERVAL=0.02 %s > /dev/null 2>&1"
         (q stream) cmd)
  in
  if code <> 0 then failf "%s under TGATES_METRICS exited %d: %s" what code cmd;
  if not (Sys.file_exists stream) then failf "%s under TGATES_METRICS wrote no stream" what;
  let code = Sys.command (Printf.sprintf "%s metrics %s > /dev/null" (q trace_cli) (q stream)) in
  if code <> 0 then failf "%s: tgates-trace metrics exited %d on its stream" what code;
  Sys.remove stream

let () =
  if Array.length Sys.argv < 4 then failf "usage: metrics_smoke COMPILE_CLI SERVE_CLI TRACE_CLI";
  let compile_cli = Sys.argv.(1) and serve_cli = Sys.argv.(2) and trace_cli = Sys.argv.(3) in
  (* Repeated angles so the planner dedups and the ledger must balance
     cached replays against fresh executions.  Each rotation sits on a
     cx target in its own 1q run: the u3 transpiler can't merge the
     repeats away and phase folding can't commute them through, so the
     identical canonical angles genuinely reach the planner. *)
  let qasm = Filename.temp_file "metrics_smoke" ".qasm" in
  let oc = open_out qasm in
  output_string oc
    ("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\n"
    ^ "rz(0.37) q[1];\ncx q[0],q[1];\nrz(0.37) q[1];\ncx q[0],q[1];\nrz(0.37) q[1];\n"
    ^ "cx q[0],q[1];\nrz(1.1) q[1];\ncx q[0],q[1];\nrz(1.1) q[1];\ncx q[0],q[1];\nrz(2.3) q[1];\n");
  close_out oc;
  check_run ~what:"clean" ~compile_cli ~qasm ~extra_flags:"";
  (* Same books under fault injection: trasyn always fails, the ladder
     falls through to gridsynth, every rotation is degraded — and still
     ledger records == rotations synthesized. *)
  check_run ~what:"faulted" ~compile_cli ~qasm ~extra_flags:"--faults 'trasyn=fail'";
  let out = Filename.temp_file "metrics_smoke" ".out.qasm" in
  check_env ~what:"compile_cli" ~trace_cli
    (Printf.sprintf "%s --input %s -o %s" (Filename.quote compile_cli) (Filename.quote qasm)
       (Filename.quote out));
  check_env ~what:"serve_cli" ~trace_cli (Filename.quote serve_cli ^ " < /dev/null");
  List.iter Sys.remove [ qasm; out ];
  print_endline "metrics_smoke: OK"
