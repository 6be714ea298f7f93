(* The shared command-line contract of the synthesis binaries, wired
   into @runtest:

   1. Each binary's option set, as [--help=plain] lists it (names,
      value names, defaults), equals the checked-in list
      (cli_options.expected), so no binary silently gains or loses a
      flag.  After a deliberate change, regenerate the list with each
      binary's [--help=plain] lines that start with seven spaces and a
      dash, prefixed by the binary's name.
   2. A bad value for a shared flag exits 1 with one line of output
      naming the flag: an unknown --gate-set, a --gate-set-file that
      names a registered gate set with another descriptor, a malformed
      --faults, an unknown --backend-chain and an unusable --store
      (compile_cli, serve_cli), and a --gate-set-file that asks for
      normal forms of a sub-alphabet (compile_cli).  A gate set other
      than the default starts cleanly, its table enumerated on first
      use (compile_cli whole and --stream, serve_cli).  serve_cli
      refuses a --epsilon that is not positive and finite at start, as
      compile_cli does, with one line saying so.  Both refuse --jobs 0
      with one stderr line and nothing on stdout, and trasyn_cli
      refuses --sites 0 and --budget -1 the same way.  A malformed
      TGATES_FAULTS is refused the way --faults is, before anything is
      written to stdout (compile_cli, serve_cli), and a --faults flag
      wins over it.

   usage: cli_smoke EXPECTED COMPILE_CLI SERVE_CLI TRASYN_CLI GRIDSYNTH_CLI *)

let failf fmt = Printf.ksprintf (fun s -> prerr_endline ("cli_smoke: FAIL: " ^ s); exit 1) fmt

let read_lines path =
  let ic = open_in path in
  let rec go acc = match input_line ic with l -> go (l :: acc) | exception End_of_file -> acc in
  let lines = List.rev (go []) in
  close_in ic;
  lines

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* Run argv with stdin from /dev/null and [env]'s NAME=VALUE pairs
   added to its environment: (exit code, stdout lines, stderr lines). *)
let run_split ?(env = []) argv =
  let out = Filename.temp_file "cli_smoke" ".out" and err = Filename.temp_file "cli_smoke" ".err" in
  let code =
    Sys.command
      (String.concat " "
         (List.map (fun (k, v) -> k ^ "=" ^ Filename.quote v) env @ List.map Filename.quote argv)
      ^ " < /dev/null > " ^ Filename.quote out ^ " 2> " ^ Filename.quote err)
  in
  let out_lines = read_lines out and err_lines = read_lines err in
  Sys.remove out;
  Sys.remove err;
  (code, out_lines, err_lines)

(* (exit code, stdout then stderr lines). *)
let run argv =
  let code, out, err = run_split argv in
  (code, out @ err)

let () =
  let expected, bins =
    match Array.to_list Sys.argv with
    | _ :: expected :: (_ :: _ as bins) -> (expected, bins)
    | _ -> failf "usage: cli_smoke EXPECTED BIN..."
  in
  let name bin = Filename.remove_extension (Filename.basename bin) in
  let bin n =
    match List.find_opt (fun b -> name b = n) bins with Some b -> b | None -> failf "no %s" n
  in
  (* 1. Option sets. *)
  let want = read_lines expected in
  List.iter
    (fun b ->
      let prefix = name b ^ " " in
      let want =
        List.filter_map
          (fun l ->
            if String.starts_with ~prefix l then
              Some (String.sub l (String.length prefix) (String.length l - String.length prefix))
            else None)
          want
      in
      let code, help = run [ b; "--help=plain" ] in
      if code <> 0 then failf "%s --help=plain exited %d" (name b) code;
      let got =
        List.filter_map
          (fun l ->
            if String.starts_with ~prefix:"       -" l then Some (String.trim l) else None)
          help
      in
      if want = [] then failf "%s has no options in %s" (name b) expected;
      if List.sort compare got <> List.sort compare want then
        failf "%s options differ from %s:\n  got:\n    %s\n  expected:\n    %s" (name b) expected
          (String.concat "\n    " got) (String.concat "\n    " want))
    bins;
  (* 2. Bad values of shared flags. *)
  let dir = Filename.temp_file "cli_smoke" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let ( / ) = Filename.concat in
  let write path s =
    let oc = open_out path in
    output_string oc s;
    close_out oc
  in
  let qasm = dir / "c.qasm" in
  write qasm "OPENQASM 2.0;\nqreg q[1];\nrz(0.37) q[0];\n";
  (* A directory under a regular file cannot be created. *)
  let not_a_dir = dir / "file" in
  close_out (open_out not_a_dir);
  (* A second descriptor under a built-in name, and normal forms of a
     sub-alphabet. *)
  let taken = dir / "taken.json" and ma_sub = dir / "ma_sub.json" in
  write taken {|{"name":"cliffordt","enumeration":"bfs"}|};
  write ma_sub {|{"name":"hst","generators":"HST","enumeration":"ma"}|};
  let cases =
    [
      ("compile_cli", [ "--input"; qasm ], "--gate-set", "no-such-set");
      ("serve_cli", [], "--gate-set", "no-such-set");
      ("compile_cli", [ "--input"; qasm ], "--gate-set-file", taken);
      ("serve_cli", [], "--gate-set-file", taken);
      ("compile_cli", [ "--input"; qasm ], "--gate-set-file", ma_sub);
      ("compile_cli", [ "--input"; qasm ], "--faults", "trasyn=frobnicate");
      ("serve_cli", [], "--faults", "trasyn=frobnicate");
      ("compile_cli", [ "--input"; qasm ], "--backend-chain", "trasyn,no-such-backend");
      ("serve_cli", [], "--backend-chain", "trasyn,no-such-backend");
      ("compile_cli", [ "--input"; qasm ], "--store", not_a_dir / "store");
      ("serve_cli", [], "--store", not_a_dir / "store");
    ]
  in
  List.iter
    (fun (b, args, flag, value) ->
      match run ((bin b :: args) @ [ flag; value ]) with
      | 1, [ line ] when contains line flag -> ()
      | code, lines ->
          failf "%s %s %s: exit %d, wanted 1 with one line naming the flag:\n%s" b flag value code
            (String.concat "\n" lines))
    cases;
  (* Another gate set starts cleanly: a pi/4 rotation is answered from
     its depth-1 table, so the depth-10 one is not built here. *)
  let exact = dir / "exact.qasm" in
  write exact "OPENQASM 2.0;\nqreg q[1];\nrz(0.7853981633974483) q[0];\n";
  List.iter
    (fun (b, args) ->
      match run ((bin b :: args) @ [ "--gate-set"; "cliffordt-weighted" ]) with
      | 0, lines when not (List.exists (fun l -> contains l "error") lines) -> ()
      | code, lines ->
          failf "%s --gate-set cliffordt-weighted: exit %d, wanted a clean start:\n%s" b code
            (String.concat "\n" lines))
    [
      ("compile_cli", [ "--input"; exact ]);
      ("compile_cli", [ "--input"; exact; "--stream" ]);
      ("serve_cli", []);
    ];
  List.iter
    (fun eps ->
      match run [ bin "serve_cli"; "--epsilon=" ^ eps ] with
      | 1, [ line ] when contains line "epsilon must be positive and finite" -> ()
      | code, lines ->
          failf "serve_cli --epsilon=%s: exit %d, wanted 1 with one line naming epsilon:\n%s" eps code
            (String.concat "\n" lines))
    [ "0"; "-0.1"; "nan" ];
  List.iter
    (fun (b, args) ->
      match run_split ((bin b :: args) @ [ "--jobs"; "0" ]) with
      | 1, [], [ line ] when contains line "--jobs" -> ()
      | code, out, err ->
          failf "%s --jobs 0: exit %d, wanted 1 with one stderr line naming --jobs and no \
                 stdout:\n%s" b code (String.concat "\n" (out @ err)))
    [ ("compile_cli", [ "--input"; qasm ]); ("serve_cli", []) ];
  List.iter
    (fun (flag, args) ->
      match run_split ([ bin "trasyn_cli"; "--theta"; "0.4" ] @ args) with
      | 1, [], [ line ] when contains line ("error: invalid argument: " ^ flag ^ ": ") -> ()
      | code, out, err ->
          failf "trasyn_cli %s: exit %d, wanted 1 with one stderr line naming %s and no stdout:\n%s"
            (String.concat " " args) code flag (String.concat "\n" (out @ err)))
    [ ("--sites", [ "--sites"; "0" ]); ("--budget", [ "--budget=-1" ]) ];
  List.iter
    (fun (b, args) ->
      let env = [ ("TGATES_FAULTS", "bogus") ] in
      (match run_split ~env (bin b :: args) with
      | 1, [], [ line ] when contains line "error: invalid argument: TGATES_FAULTS: " -> ()
      | code, out, err ->
          failf "%s under TGATES_FAULTS=bogus: exit %d, wanted 1 with one stderr line naming \
                 TGATES_FAULTS and no stdout:\n%s" b code (String.concat "\n" (out @ err)));
      match run_split ~env ((bin b :: args) @ [ "--faults"; "trasyn=fail" ]) with
      | 0, _, _ -> ()
      | code, out, err ->
          failf "%s --faults under TGATES_FAULTS=bogus: exit %d, wanted 0:\n%s" b code
            (String.concat "\n" (out @ err)))
    [ ("compile_cli", [ "--input"; qasm; "-w"; "gridsynth" ]); ("serve_cli", []) ];
  List.iter Sys.remove [ qasm; exact; not_a_dir; taken; ma_sub ];
  Unix.rmdir dir;
  print_endline "cli_smoke: OK"
