(* End-to-end smoke for the gate-set pipeline, wired into @runtest:
   drive compile_cli from the outside and check the contracts at the
   process boundary:

   1. compile_cli compiles a small circuit end-to-end through the
      non-default gate set (--gate-set cliffordt-weighted, no table
      file: its step-0 table is enumerated on first use), emitting
      Clifford+T output.
   2. An unknown gate-set name is a structured CLI error.

   In "full" mode (the @gateset alias) the circuit adds a nontrivial
   rotation, exercising real TRASYN sampling through the gate set's
   depth-10 table, and the per-rotation ledger records must carry the
   gate set's name; in "quick" mode (@runtest) the circuit's rotations
   are pi/4 multiples, answered from the depth-1 table, so the run
   stays fast. *)

let failf fmt = Printf.ksprintf (fun s -> prerr_endline ("gateset_smoke: FAIL: " ^ s); exit 1) fmt

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* Run argv, capturing stdout+stderr; (exit_code, output). *)
let run argv =
  let out = Filename.temp_file "gateset_smoke" ".out" in
  let cmd =
    String.concat " " (List.map Filename.quote argv) ^ " > " ^ Filename.quote out ^ " 2>&1"
  in
  let code = Sys.command cmd in
  let s = read_file out in
  Sys.remove out;
  (code, s)

let expect_ok what (code, out) =
  if code <> 0 then failf "%s: exit %d\n%s" what code out;
  out

let () =
  let compile, mode =
    match Array.to_list Sys.argv with
    | [ _; cc ] -> (cc, "quick")
    | [ _; cc; m ] -> (cc, m)
    | _ -> failf "usage: gateset_smoke COMPILE_CLI [quick|full]"
  in
  let dir = Filename.temp_file "tgates_gateset" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let ( / ) = Filename.concat in

  let qasm = dir / "smoke.qasm" in
  let rotation =
    (* pi/4 multiples are exact words of the depth-1 table; full mode
       adds a rotation that forces real synthesis through the depth-10
       one. *)
    if mode = "full" then "rz(0.3) q[0];\n" else "rz(0.7853981633974483) q[0];\n"
  in
  write_file qasm
    ("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\n" ^ rotation
   ^ "h q[1];\ncx q[0],q[1];\nrz(1.5707963267948966) q[1];\n");

  (* 1. End-to-end compile through the non-default alphabet. *)
  let ledger = dir / "ledger.jsonl" in
  let out_qasm = dir / "out.qasm" in
  let out =
    expect_ok "compile via weighted gate set"
      (run
         [
           compile; "--input"; qasm; "-w"; "trasyn"; "--gate-set"; "cliffordt-weighted";
           "--epsilon"; "0.05"; "--ledger"; ledger; "--output"; out_qasm;
         ])
  in
  if not (contains out "output") then failf "compile: no output line:\n%s" out;
  if not (Sys.file_exists out_qasm) then failf "compile: no QASM written";
  if mode = "full" then begin
    (* Ledger records must carry the gate set's name. *)
    if not (contains (read_file ledger) {|"gate_set":"cliffordt-weighted"|}) then
      failf "ledger records lack gate_set provenance:\n%s" (read_file ledger)
  end;

  (* 2. An unknown gate-set name is a structured CLI error. *)
  let code, out = run [ compile; "--input"; qasm; "--gate-set"; "no-such-alphabet" ] in
  if code = 0 then failf "unknown gate set accepted";
  if not (contains out "unknown gate set") then failf "unknown gate set: bad error:\n%s" out;

  let rec rm_rf p =
    match Unix.lstat p with
    | exception Unix.Unix_error _ -> ()
    | { Unix.st_kind = Unix.S_DIR; _ } ->
        Array.iter (fun f -> rm_rf (p / f)) (Sys.readdir p);
        (try Unix.rmdir p with Unix.Unix_error _ -> ())
    | _ -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
  in
  rm_rf dir;
  print_endline ("gateset_smoke: OK (" ^ mode ^ ")")
