(* CI gate for streaming compilation, wired into @runtest and @stream:
   drive real compile_cli processes over a generated QAOA gate stream
   and hold the streaming contract:

   1. bit-identity — the QASM written with --stream --jobs 1 and with
      --jobs 2 must be byte-for-byte equal (the engine's reorder FIFO
      and producer-only memo make output independent of scheduling),
      on the QAOA stream, whose 8 distinct rotations never queue more
      than 8 jobs, and on ≈ 5,000 rotations that are all distinct,
      whose jobs queue as deep as the reorder FIFO lets them;
   2. bounded heap — peak major-heap words at 10^4 input gates must
      stay within a small factor of the 2*10^3-gate run (the window
      and the reorder FIFO bound memory; only caches grow slowly),
      and nowhere near proportional to input size;
   3. the report carries the machine-parseable gates/sec and peak-heap
      lines the perf suite consumes.

   The executable arrives as argv: COMPILE_CLI. *)

let failf fmt = Printf.ksprintf (fun s -> prerr_endline ("stream_smoke: FAIL: " ^ s); exit 1) fmt

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let scan_line out fmt conv what =
  let v = ref None in
  List.iter
    (fun line ->
      try Scanf.sscanf line fmt (fun x -> v := Some (conv x))
      with Scanf.Scan_failure _ | Failure _ | End_of_file -> ())
    (String.split_on_char '\n' out);
  match !v with
  | Some x -> x
  | None -> failf "compile report has no %s line:\n%s" what out

let gen_qasm ~gates =
  let path = Filename.temp_file "stream_smoke" ".qasm" in
  let oc = open_out path in
  let written = Generators.write_qaoa_stream ~seed:11 ~n:12 ~gates oc in
  close_out oc;
  if written <> gates then failf "generator wrote %d of %d instructions" written gates;
  path

(* Rotations at seeded angles in (−3, 3), at least 2.4e-4 apart and off
   the π/4 grid, each followed by an H so the window merges none: every
   rotation is its own synthesis job.  Returns the path and the count. *)
let gen_distinct ~rotations =
  let path = Filename.temp_file "stream_smoke" ".qasm" in
  let oc = open_out path in
  let rng = Random.State.make [| 40 |] in
  Qasm.write_header oc 4;
  let written = ref 0 in
  for k = 0 to rotations - 1 do
    let a =
      -3.0 +. (6.0 *. (float_of_int k +. 0.1 +. Random.State.float rng 0.8) /. float_of_int rotations)
    in
    let steps = a /. (Float.pi /. 4.0) in
    if Float.abs (steps -. Float.round steps) > 1e-3 then begin
      Qasm.write_instr oc (Circuit.instr (Qgate.Rz a) [| k mod 4 |]);
      Qasm.write_instr oc (Circuit.instr Qgate.H [| k mod 4 |]);
      incr written
    end
  done;
  close_out oc;
  (path, !written)

(* One streaming compile; returns (output-qasm text, peak heap words,
   gates/sec, unique syntheses). *)
let compile ~compile_cli ~qasm ~jobs =
  let q = Filename.quote in
  let out_qasm = Filename.temp_file "stream_smoke" ".out.qasm" in
  let report = Filename.temp_file "stream_smoke" ".report" in
  let cmd =
    Printf.sprintf "%s --input %s --stream --workflow gridsynth --epsilon 0.1 --jobs %d -o %s > %s 2>/dev/null"
      (q compile_cli) (q qasm) jobs (q out_qasm) (q report)
  in
  if Sys.command cmd <> 0 then failf "compile exited nonzero: %s" cmd;
  let rep = read_file report in
  let peak = scan_line rep "peak heap: %d words" (fun x -> x) "'peak heap: N words'" in
  let rate = scan_line rep "gates/sec: %f" (fun x -> x) "'gates/sec: R'" in
  let unique =
    scan_line rep "synth    : %_d rotations (%d unique" (fun x -> x) "'synth : N rotations (U unique'"
  in
  let text = read_file out_qasm in
  List.iter Sys.remove [ out_qasm; report ];
  (text, peak, rate, unique)

let () =
  if Array.length Sys.argv < 2 then failf "usage: stream_smoke COMPILE_CLI";
  let compile_cli = Sys.argv.(1) in

  (* 1-2. Bit-identity across job counts at 10^4 gates, plus report
     sanity. *)
  let big = gen_qasm ~gates:10_000 in
  let out1, peak_big, rate, _ = compile ~compile_cli ~qasm:big ~jobs:1 in
  let out2, _, _, _ = compile ~compile_cli ~qasm:big ~jobs:2 in
  if out1 <> out2 then failf "--jobs 1 and --jobs 2 outputs differ (%d vs %d bytes)"
      (String.length out1) (String.length out2);
  if String.length out1 = 0 then failf "streaming produced no output";
  if peak_big <= 0 then failf "peak heap not sampled (got %d words)" peak_big;
  if rate <= 0.0 then failf "gates/sec not reported (got %f)" rate;

  (* 1 again, on a backlog: every rotation distinct, so at --jobs 2 the
     queued jobs reach the reorder FIFO's bound. *)
  let distinct, rotations = gen_distinct ~rotations:5_000 in
  let d1, _, _, unique = compile ~compile_cli ~qasm:distinct ~jobs:1 in
  let d2, _, _, _ = compile ~compile_cli ~qasm:distinct ~jobs:2 in
  if unique <> rotations then
    failf "the distinct stream synthesized %d unique rotations of %d" unique rotations;
  if d1 <> d2 then failf "distinct rotations: --jobs 1 and --jobs 2 outputs differ (%d vs %d bytes)"
      (String.length d1) (String.length d2);

  (* 3. Bounded heap: 5x more input must not cost anywhere near 5x the
     peak.  Factor 3 leaves room for cache growth and GC jitter while
     still refuting O(input) memory. *)
  let small = gen_qasm ~gates:2_000 in
  let _, peak_small, _, _ = compile ~compile_cli ~qasm:small ~jobs:1 in
  if peak_small <= 0 then failf "small-run peak heap not sampled";
  let ratio = float_of_int peak_big /. float_of_int peak_small in
  if ratio > 3.0 then
    failf "peak heap scales with input: %d words at 10^4 gates vs %d at 2*10^3 (ratio %.2f > 3)"
      peak_big peak_small ratio;

  List.iter Sys.remove [ big; small; distinct ];
  print_endline "stream_smoke: OK"
