(* End-to-end fault-injection smoke, wired into @runtest: drive
   compile_cli from the outside with TGATES_FAULTS and check the two
   contracts the hardening layer makes at the process boundary:

   1. With TRASYN forced to fail, the fallback chain still delivers a
      verified Clifford+T circuit, the process exits 0, and the run
      reports which backend rescued each rotation (also visible as
      robust.* counters in the trace).
   2. With every backend forced to fail, the process exits nonzero with
      a one-line structured error on stderr — never a backtrace.
   3. A non-positive or NaN --epsilon is rejected up front with the
      same kind of error, whole-circuit and --stream alike, instead of
      sliding every rotation down the ladder.
   4. Under a probabilistic spec the output is the same at any --jobs,
      whole-circuit and --stream alike: whether a rung's fault fires
      depends on the rotation, not on which planner domain reaches it
      first. *)

let failf fmt = Printf.ksprintf (fun s -> prerr_endline ("fault_smoke: FAIL: " ^ s); exit 1) fmt

let read_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let () =
  if Array.length Sys.argv < 2 then failf "usage: fault_smoke COMPILE_CLI";
  let cli = Sys.argv.(1) in
  let qasm = Filename.temp_file "fault_smoke" ".qasm" in
  let out_qasm = Filename.temp_file "fault_smoke_out" ".qasm" in
  let stdout_f = Filename.temp_file "fault_smoke" ".out" in
  let stderr_f = Filename.temp_file "fault_smoke" ".err" in
  let trace_f = Filename.temp_file "fault_smoke" ".jsonl" in
  let u3s = Filename.temp_file "fault_smoke_u3" ".qasm" in
  let cleanup () =
    List.iter
      (fun f -> try Sys.remove f with Sys_error _ -> ())
      [ qasm; out_qasm; stdout_f; stderr_f; trace_f; u3s ]
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  let oc = open_out qasm in
  output_string oc "OPENQASM 2.0;\nqreg q[1];\nh q[0];\nrz(0.37) q[0];\n";
  close_out oc;
  let run ?(input = qasm) ?(epsilon = 0.05) faults extra =
    Unix.putenv "TGATES_FAULTS" faults;
    Sys.command
      (Printf.sprintf "%s --input %s --workflow trasyn --epsilon %g %s > %s 2> %s"
         (Filename.quote cli) (Filename.quote input) epsilon extra (Filename.quote stdout_f)
         (Filename.quote stderr_f))
  in

  (* Gate 1: dead TRASYN, chain recovers, exit 0, fallbacks reported. *)
  let code =
    run "trasyn=fail,seed=1"
      (Printf.sprintf "--output %s --trace %s" (Filename.quote out_qasm) (Filename.quote trace_f))
  in
  if code <> 0 then failf "fallback run exited %d (stderr: %s)" code (read_file stderr_f);
  let out = read_file stdout_f in
  if not (contains out "degraded") then failf "fallback run did not report degradation:\n%s" out;
  if not (contains out "fallback") then failf "fallback run did not report fallback counts:\n%s" out;
  (* The rescued output must still be a pure Clifford+T circuit. *)
  let compiled = Qasm_reader.of_file out_qasm in
  if Circuit.nontrivial_rotation_count compiled <> 0 then
    failf "rescued circuit still contains rotations";
  if Circuit.t_count compiled = 0 then failf "rescued circuit has no T gates";
  (* And the robust counters must show the chain at work in the trace. *)
  let trace = read_file trace_f in
  List.iter
    (fun c -> if not (contains trace c) then failf "trace is missing counter %s" c)
    [ "robust.retries"; "robust.guard.checked"; "robust.faults.injected"; "robust.fallback." ];

  (* Gate 2: everything dead — nonzero exit, structured error, no
     backtrace. *)
  let code = run "*=fail" "" in
  if code = 0 then failf "all-backends-dead run exited 0";
  let err = read_file stderr_f in
  if not (contains err "error:") then failf "stderr is not a structured error: %s" err;
  if contains err "Raised at" || contains err "Fatal error" || contains err "Backtrace" then
    failf "stderr contains a backtrace: %s" err;

  (* Gate 4: eight U3s, about half of whose TRASYN rungs fail; -j 2
     runs twice, so two schedules of the same jobs are compared. *)
  let oc = open_out u3s in
  output_string oc "OPENQASM 2.0;\nqreg q[8];\n";
  List.iteri
    (fun q (t, p, l) -> Printf.fprintf oc "u3(%g,%g,%g) q[%d];\n" t p l q)
    [ (1.819145, 1.519192, 1.854756); (2.657077, 1.507327, 2.653546);
      (0.342287, -0.215999, 2.785692); (1.87334, 2.518932, -2.430299);
      (1.508895, -1.59233, 0.274958); (1.719223, -3.059194, -1.779839);
      (1.114044, 2.615975, 1.669602); (0.821954, 1.86703, -2.269691) ];
  close_out oc;
  List.iter
    (fun mode ->
      let compiled jobs =
        let code =
          run ~input:u3s ~epsilon:0.1 "trasyn=fail@0.5,seed=3"
            (Printf.sprintf "%s --jobs %d --output %s" mode jobs (Filename.quote out_qasm))
        in
        if code <> 0 then
          failf "%s --jobs %d exited %d (stderr: %s)" mode jobs code (read_file stderr_f);
        read_file out_qasm
      in
      let reference = compiled 1 in
      let out = read_file stdout_f in
      if (not (contains out "degraded")) || contains out " 0 degraded" then
        failf "%s: trasyn=fail@0.5 degraded no rotation:\n%s" mode out;
      List.iter
        (fun jobs ->
          if compiled jobs <> reference then
            failf "%s: --jobs %d wrote a different circuit than --jobs 1" mode jobs)
        [ 2; 2 ])
    [ ""; "--stream" ];

  Unix.putenv "TGATES_FAULTS" "";
  (* Gate 3: out-of-range ε exits nonzero before any synthesis. *)
  List.iter
    (fun extra ->
      let code =
        Sys.command
          (Printf.sprintf "%s --input %s --workflow trasyn %s > %s 2> %s" (Filename.quote cli)
             (Filename.quote qasm) extra (Filename.quote stdout_f) (Filename.quote stderr_f))
      in
      if code = 0 then failf "%s exited 0" extra;
      let err = read_file stderr_f in
      if not (contains err "epsilon must be positive and finite") then
        failf "%s: stderr does not name the bad epsilon: %s" extra err)
    [ "--epsilon=-0.1"; "--epsilon=0"; "--epsilon=nan"; "--stream --epsilon=nan" ];
  print_endline "fault_smoke: OK"
