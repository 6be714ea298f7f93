(* End-to-end smoke test for the observability plumbing: run trasyn_cli
   (with --trace) and gridsynth_cli (with TGATES_TRACE) once, then check
   that every line of the emitted trace parses as JSON and that the
   expected spans/counters are present.  Wired into @runtest by
   test/dune; the CLI paths arrive as argv. *)

let failf fmt = Printf.ksprintf (fun s -> prerr_endline ("smoke_trace: FAIL: " ^ s); exit 1) fmt

let read_lines path =
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  List.rev !lines

let check_jsonl ~what ~expect path =
  let lines = List.filter (fun l -> String.trim l <> "") (read_lines path) in
  if lines = [] then failf "%s: trace %s is empty" what path;
  let parsed =
    List.map
      (fun l ->
        match Obs.Json.parse l with
        | Ok j -> j
        | Error e -> failf "%s: invalid JSONL line %S: %s" what l e)
      lines
  in
  List.iter
    (fun name ->
      let found =
        List.exists (fun j -> Obs.Json.member "name" j = Some (Obs.Json.Str name)) parsed
      in
      if not found then failf "%s: metric %S missing from trace" what name)
    expect;
  Printf.printf "smoke_trace: %s ok (%d JSONL lines)\n%!" what (List.length lines)

let run_cmd cmd = if Sys.command cmd <> 0 then failf "command failed: %s" cmd

let () =
  if Array.length Sys.argv < 3 then failf "usage: smoke_trace TRASYN_CLI GRIDSYNTH_CLI";
  let trasyn = Sys.argv.(1) and gridsynth = Sys.argv.(2) in
  (* Gate 1: the --trace flag. *)
  let t1 = Filename.temp_file "smoke_trasyn" ".jsonl" in
  run_cmd
    (Printf.sprintf "%s --theta 0.4 --phi 1.1 --samples 64 --budget 6 --sites 2 --trace %s >/dev/null 2>/dev/null"
       (Filename.quote trasyn) (Filename.quote t1));
  check_jsonl ~what:"trasyn_cli --trace" t1
    ~expect:
      [
        "trasyn.synthesize";
        (* Without --epsilon both budget prefixes run, one site and then
           two, each through Mps.sample. *)
        "mps.sample";
        (* The chain cache is empty in a fresh process: each prefix
           builds its chain once (mps.chain_build), and the two-site
           call runs its beam past site 0 under mps.beam_search. *)
        "mps.chain_build";
        "mps.beam_search";
        (* The two-site draws' last-site argmax: prefixes certified by
           a neighbourhood list, prefixes that fell back, list entries. *)
        "mps.argmax.certified";
        "mps.argmax.fallback";
        "mps.argmax.list_entries";
        "trasyn.t_count";
      ];
  Sys.remove t1;
  (* Gate 2: the TGATES_TRACE environment variable. *)
  let t2 = Filename.temp_file "smoke_gridsynth" ".jsonl" in
  Unix.putenv "TGATES_TRACE" t2;
  run_cmd
    (Printf.sprintf "%s --theta 0.61 --epsilon 1e-3 >/dev/null 2>/dev/null" (Filename.quote gridsynth));
  check_jsonl ~what:"gridsynth_cli TGATES_TRACE" t2
    ~expect:
      [ "gridsynth.rz"; "gridsynth.grid_problem"; "gridsynth.candidates"; "gridsynth.diophantine.attempts" ];
  Sys.remove t2;
  (* Gate 3: a Cmdliner argument-error exit (Stdlib.exit without
     unwinding through with_trace) must still flush and close the trace
     armed via TGATES_TRACE — every line complete JSON, final metrics
     appended. *)
  let t3 = Filename.temp_file "smoke_badflag" ".jsonl" in
  Unix.putenv "TGATES_TRACE" t3;
  let code =
    Sys.command
      (Printf.sprintf "%s --no-such-flag >/dev/null 2>/dev/null" (Filename.quote gridsynth))
  in
  Unix.putenv "TGATES_TRACE" "";
  if code = 0 then failf "gridsynth_cli accepted --no-such-flag";
  check_jsonl ~what:"cmdliner error exit" t3 ~expect:[];
  let has_metrics =
    List.exists
      (fun l ->
        match Obs.Json.parse l with
        | Ok j -> (
            match Obs.Json.member "ev" j with
            | Some (Obs.Json.Str ("counter" | "gauge" | "hist")) -> true
            | _ -> false)
        | Error _ -> false)
      (List.filter (fun l -> String.trim l <> "") (read_lines t3))
  in
  if not has_metrics then failf "cmdliner error exit: final metrics missing from trace";
  Sys.remove t3;
  (* Gate 4: trasyn_cli rejects an --epsilon that is not positive and
     finite instead of reporting NaN as met. *)
  List.iter
    (fun eps ->
      let code =
        Sys.command
          (Printf.sprintf "%s --theta 0.4 --epsilon=%s >/dev/null 2>/dev/null"
             (Filename.quote trasyn) eps)
      in
      if code = 0 then failf "trasyn_cli accepted --epsilon=%s" eps)
    [ "nan"; "0"; "-0.1" ];
  print_endline "smoke_trace: OK"
