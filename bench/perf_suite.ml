(** [bench/main.exe --suite perf]: one [tgates-bench/v2] document from
    the benchmark's own runs.  For each workload of BENCHMARK.json it
    runs the perfbench executable of its own build
    ([../perfbench/bench.exe] beside this one) twice, as
    [perfbench/run.py] does: untraced, for the end-to-end metrics, then
    traced, for the per-layer metrics and the overhead against the
    untraced rate.  Both runs use seed 1, a fresh scratch directory
    removed afterwards, and an environment without the program's own
    observability switches.  Unlike run.py, the children are not pinned
    to one CPU.  [smoke] runs perfbench's smoke inputs for one second.

    A run that exits nonzero, reports [correct: false] or counts a
    failed operation stops the suite: it writes no document and exits 1,
    naming the workload. *)

module J = Obs.Json
module TA = Trace_analysis

(* The variables run.py unsets: the benchmark decides what is traced. *)
let quiet =
  [ "TGATES_TRACE"; "TGATES_METRICS"; "TGATES_METRICS_INTERVAL"; "TGATES_METRICS_PROM"; "TGATES_LEDGER" ]

let fail fmt =
  Printf.ksprintf (fun s -> prerr_endline ("perf suite: " ^ s ^ "; no document written"); exit 1) fmt

let rec rm_rf p =
  if Sys.is_directory p then begin
    Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
    Sys.rmdir p
  end
  else Sys.remove p

(* The first unused BENCH_<n>.json slot here. *)
let rec next_bench_path n =
  let p = Printf.sprintf "BENCH_%d.json" n in
  if Sys.file_exists p then next_bench_path (n + 1) else p

let num k j = match J.member k j with Some (J.Num v) -> v | _ -> nan

(* One perfbench run: stdout's lines before the result, and the result
   object on its last line.  Its stderr is shown only if it fails. *)
let run_bench ~exe ~workload args =
  let work = Filename.temp_file "tgates-perf" "" in
  Sys.remove work;
  Sys.mkdir work 0o700;
  let argv = Array.of_list ([ exe; "--workload"; workload; "--work"; work ] @ args) in
  let keep kv = not (List.exists (fun q -> String.starts_with ~prefix:(q ^ "=") kv) quiet) in
  let env = Array.of_list (List.filter keep (Array.to_list (Unix.environment ()))) in
  let status, out, err =
    Fun.protect ~finally:(fun () -> rm_rf work) @@ fun () ->
    let err_path = Filename.concat work "stderr.txt" in
    let err_fd = Unix.openfile err_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_CLOEXEC ] 0o600 in
    let r, w = Unix.pipe ~cloexec:true () in
    let pid = Unix.create_process_env exe argv env Unix.stdin w err_fd in
    Unix.close w;
    Unix.close err_fd;
    let out = In_channel.input_all (Unix.in_channel_of_descr r) in
    Unix.close r;
    let status = snd (Unix.waitpid [] pid) in
    (status, out, In_channel.with_open_bin err_path In_channel.input_all)
  in
  let fail fmt = prerr_string err; fail fmt in
  let lines, result =
    match (status, List.rev (String.split_on_char '\n' (String.trim out))) with
    | Unix.WEXITED 0, last :: rest -> (
        match J.parse last with
        | Ok result -> (List.rev rest, result)
        | Error e -> fail "%s: result line does not parse: %s" workload e)
    | Unix.WEXITED c, _ -> fail "%s: perfbench exited with code %d" workload c
    | (Unix.WSIGNALED s | Unix.WSTOPPED s), _ -> fail "%s: perfbench stopped by signal %d" workload s
  in
  if J.member "correct" result <> Some (J.Bool true) then
    fail "%s: a check of its outputs failed (\"correct\": false)" workload;
  if num "failed" result <> 0.0 then
    fail "%s: %g of %g operations failed" workload (num "failed" result) (num "attempted" result);
  (lines, result)

(* The metrics a run prints, minus those its detail lines list as not
   applicable, each with its direction from [directions]. *)
let metrics ~directions ~workload (lines, result) =
  let not_applicable =
    List.concat_map
      (fun l ->
        if not (String.starts_with ~prefix:"detail " l) then []
        else
          match Result.map (J.member "not_applicable") (J.parse (String.sub l 7 (String.length l - 7))) with
          | Ok (Some (J.Arr names)) -> List.filter_map (function J.Str n -> Some n | _ -> None) names
          | _ -> [])
      lines
  in
  let printed = match J.member "metrics" result with Some (J.Obj ms) -> ms | _ -> [] in
  List.filter_map
    (fun (name, m) ->
      let unit_ = match J.member "unit" m with Some (J.Str u) -> u | _ -> "" in
      match List.assoc_opt name directions with
      | _ when List.mem name not_applicable -> None
      | Some better -> Some (name, num "value" m, unit_, better)
      | None -> fail "%s: metric %s is not in BENCHMARK.json" workload name)
    printed

let run ?out ~smoke () =
  let spec = match J.parse Benchmark_spec.json with Ok j -> j | Error e -> fail "BENCHMARK.json: %s" e in
  let list k = match J.member k spec with Some (J.Arr xs) -> xs | _ -> [] in
  let name j = match J.member "name" j with Some (J.Str n) -> n | _ -> "" in
  let better m = if J.member "better" m = Some (J.Str "higher") then TA.Higher else TA.Lower in
  let directions = List.map (fun m -> (name m, better m)) (list "end_to_end" @ list "per_layer") in
  let seconds = if smoke then 1 else int_of_float (num "run_seconds" spec) in
  let exe = Filename.concat (Filename.dirname Sys.executable_name) "../perfbench/bench.exe" in
  if not (Sys.file_exists exe) then fail "%s not found: build perfbench/bench.exe" exe;
  let common =
    [ "--seed"; "1"; "--seconds"; string_of_int seconds ] @ if smoke then [ "--smoke" ] else []
  in
  let phase workload =
    let t0 = Obs.Clock.elapsed_s () in
    let untraced = run_bench ~exe ~workload (common @ [ "--trace"; "0" ]) in
    let rate =
      match Option.bind (J.member "metrics" (snd untraced)) (J.member "rate_per_s") with
      | Some m -> num "value" m
      | None -> 0.0
    in
    let t1 = Obs.Clock.elapsed_s () in
    let traced =
      run_bench ~exe ~workload
        (common @ [ "--trace"; "1" ]
        @ if rate > 0.0 then [ "--untraced-rate"; Printf.sprintf "%.17g" rate ] else [])
    in
    let ms = metrics ~directions ~workload untraced @ metrics ~directions ~workload traced in
    let count k = int_of_float (num k (snd untraced) +. num k (snd traced)) in
    Printf.printf "  %-12s %2d metrics  untraced %.1f s, traced %.1f s\n%!" workload (List.length ms)
      (t1 -. t0)
      (Obs.Clock.elapsed_s () -. t1);
    (workload, TA.bench_phase ~correct:true ~attempted:(count "attempted") ~failed:(count "failed") ms)
  in
  Util.header
    (Printf.sprintf "PERF SUITE (perfbench, %d s per run%s)" seconds (if smoke then ", smoke" else ""));
  let phases = List.map (fun w -> phase (name w)) (list "workloads") in
  let meta = [ ("smoke", J.Bool smoke); ("seed", J.Num 1.0); ("seconds", J.Num (float_of_int seconds)) ] in
  let path = match out with Some p -> p | None -> next_bench_path 0 in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (J.pretty (TA.bench_document ~meta phases));
      output_char oc '\n');
  Printf.printf "  wrote %s\n%!" path
