(* CI gate on allocation, wired into @runtest.  Wall-clock gates need
   retries on a noisy box; [Gc.minor_words] counts what this domain
   allocated, which repeats exactly for the same code and input, so
   these bounds are checked once.  Everything runs in this process, on
   one domain, with no sampler thread.

   Over a 10^4-gate QAOA stream (Generators.write_qaoa_stream, seed 11,
   12 qubits) it bounds minor words:

   1. per input gate in Qasm_reader.next_event (the in-place lexer);
   2. per output gate in Qasm.write_instr to /dev/null (prebuilt lines);
   3. per input gate in a warm-memo Stream_compile.run fed from memory
      (window, resolution table, memo hits, instruction records);

   and, over the 200 angles θ_i = −3 + 6i/200 at ε 0.07, minor words

   4. per Gridsynth.rz call (grid problems, Diophantine, exact
      synthesis on native Exact_u, verification);

   and, over every 8th circuit of the 187-circuit suite, minor words

   5. per IR gate of a warm-memo Pipeline.run_gridsynth ~jobs:1, minus
      its own Settings.best_for: the whole-circuit path (the engine
      run over the IR, output circuit and result record).

   Bounds are for the dev profile that runtest builds. *)

let parse_bound = 40.0
let write_bound = 8.0
let engine_bound = 351.0
let gridsynth_bound = 15321.0
let whole_bound = 1851.0

let gates = 10_000

let text =
  let path = Filename.temp_file "alloc_gate" ".qasm" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Out_channel.with_open_bin path (fun oc ->
      ignore (Generators.write_qaoa_stream ~seed:11 ~n:12 ~gates oc));
  In_channel.with_open_bin path In_channel.input_all

(* The result of [f ()] and the minor words it allocated. *)
let measure f =
  let w0 = Gc.minor_words () in
  let r = f () in
  (r, Gc.minor_words () -. w0)

let parse () =
  let sr = Qasm_reader.stream_of_string text in
  let rec loop n =
    match Qasm_reader.next_event sr with
    | None -> n
    | Some (Qasm_reader.Qreg _) -> loop n
    | Some (Qasm_reader.Instr _) -> loop (n + 1)
  in
  loop 0

let input = (Qasm_reader.of_string text).Circuit.instrs |> Array.of_list
let cfg = Stream_compile.config ~epsilon:0.07 ()

let compile emit =
  let k = ref 0 in
  let next () =
    if !k >= Array.length input then None
    else begin
      incr k;
      Some input.(!k - 1)
    end
  in
  match Stream_compile.run cfg ~next ~emit with
  | Ok _ -> ()
  | Error f -> failwith ("alloc_gate: compile failed: " ^ Robust.failure_to_string f)

let () =
  let failed = ref false in
  let check what measured bound =
    let ok = measured <= bound in
    Printf.printf "alloc_gate: %-40s %7.2f words (bound %.0f)%s\n" what measured bound
      (if ok then "" else "  FAIL");
    if not ok then failed := true
  in
  let parsed, words = measure parse in
  check "Qasm_reader.next_event per input gate" (words /. float_of_int parsed) parse_bound;
  (* A cold run warms the memo and yields the output gates. *)
  Stream_compile.clear_cache ();
  let output = ref [] in
  compile (fun i -> output := i :: !output);
  let output = List.rev !output in
  let null = open_out_bin "/dev/null" in
  let (), words = measure (fun () -> List.iter (Qasm.write_instr null) output) in
  close_out null;
  check "Qasm.write_instr per output gate" (words /. float_of_int (List.length output)) write_bound;
  let (), words = measure (fun () -> compile ignore) in
  check "warm Stream_compile.run per input gate" (words /. float_of_int (Array.length input))
    engine_bound;
  let angles = List.init 200 (fun i -> -3.0 +. (6.0 *. float_of_int i /. 200.0)) in
  let (), words =
    measure (fun () -> List.iter (fun theta -> ignore (Gridsynth.rz ~theta ~epsilon:0.07 ())) angles)
  in
  check "Gridsynth.rz per call at eps 0.07" (words /. 200.0) gridsynth_bound;
  let circuits =
    List.filteri (fun i _ -> i mod 8 = 0) (Suite.all ())
    |> List.map (fun (b : Suite.benchmark) -> b.Suite.circuit)
  in
  let whole_words = ref 0.0 and ir_gates = ref 0 in
  List.iter
    (fun c ->
      (* The first run warms the memo. *)
      ignore (Pipeline.run_gridsynth ~jobs:1 c : Pipeline.synthesized);
      let (_, ir), best_for = measure (fun () -> Settings.best_for Settings.Rz_ir c) in
      let _, whole = measure (fun () -> Pipeline.run_gridsynth ~jobs:1 c) in
      whole_words := !whole_words +. whole -. best_for;
      ir_gates := !ir_gates + Circuit.length ir)
    circuits;
  check "warm whole-circuit path per IR gate" (!whole_words /. float_of_int !ir_gates) whole_bound;
  if !failed then exit 1
