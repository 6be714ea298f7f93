(* Whole-circuit FT compiler: read an OpenQASM 2.0 file, transpile +
   synthesize every rotation into Clifford+T through the chosen
   workflow, and write the result back as QASM with a resource report.

   dune exec bin/compile_cli.exe -- --input circuit.qasm --workflow trasyn \
       --epsilon 0.05 --output out.qasm

   Synthesis is hardened: every word is re-verified before entering the
   circuit, failing backends fall back down a ladder (TRASYN → retry →
   GRIDSYNTH → Solovay–Kitaev), and --deadline/--rotation-deadline bound
   the run on the monotonic clock.  --faults (or the TGATES_FAULTS
   environment variable) injects deterministic faults for testing; any
   rotation that needed a fallback or overshot its threshold is listed
   in the degradation report. *)

open Cmdliner

(* How many degraded rotations to itemize before summarizing. *)
let max_degraded_lines = 10

let report_degraded (ds : Pipeline.degradation list) =
  if ds <> [] then begin
    let counts = Hashtbl.create 8 in
    List.iter
      (fun (d : Pipeline.degradation) ->
        Hashtbl.replace counts d.Pipeline.backend
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts d.Pipeline.backend)))
      ds;
    let by_backend =
      Hashtbl.fold (fun b n acc -> Printf.sprintf "%s=%d" b n :: acc) counts []
      |> List.sort compare |> String.concat ", "
    in
    Printf.printf "degraded : %d rotations needed a fallback or overshot (%s)\n" (List.length ds)
      by_backend;
    List.iteri
      (fun i (d : Pipeline.degradation) ->
        if i < max_degraded_lines then
          Printf.printf "  %s -> %s after %d fallbacks, achieved %.3g (requested %.3g)\n"
            d.Pipeline.gate d.Pipeline.backend d.Pipeline.fallbacks d.Pipeline.achieved
            d.Pipeline.requested)
      ds;
    if List.length ds > max_degraded_lines then
      Printf.printf "  ... and %d more\n" (List.length ds - max_degraded_lines)
  end

(* Streaming mode: incremental parse → windowed optimization → engine
   synthesis → in-order QASM emission, holding only the window and the
   engine's reorder FIFO.  Prints machine-parseable [gates/sec :] and
   [peak heap:] lines that the perf suite and the heap smoke test parse. *)
let run_stream ~input ~output (cfg : Stream_compile.config) =
  let ic = open_in input in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let reader = Qasm_reader.stream_of_channel ~file:input ic in
  let oc = Option.map open_out output in
  Fun.protect ~finally:(fun () -> match oc with Some oc -> close_out oc | None -> ())
  @@ fun () ->
  let emit i = match oc with Some oc -> Qasm.write_instr oc i | None -> () in
  let on_qreg n =
    Printf.printf "input    : %d qubits (streaming, window %d, %d jobs)\n%!" n cfg.window cfg.jobs;
    match oc with Some oc -> Qasm.write_header oc n | None -> ()
  in
  let t0 = Obs.Clock.elapsed_s () in
  match Stream_compile.run_qasm cfg reader ~on_qreg ~emit with
  | Error f -> Robust.fail f
  | Ok st ->
      let dt = Obs.Clock.elapsed_s () -. t0 in
      let rate = if dt > 0.0 then float_of_int st.Stream_compile.gates_in /. dt else 0.0 in
      Printf.printf "output   : %d gates in -> %d gates out, T=%d, Cliffords=%d\n"
        st.Stream_compile.gates_in st.Stream_compile.gates_out st.Stream_compile.t_count
        st.Stream_compile.clifford_count;
      Printf.printf "synth    : %d rotations (%d unique, %d dedup hits), err %.4f, %d degraded\n"
        st.Stream_compile.rotations_synthesized st.Stream_compile.unique_syntheses
        st.Stream_compile.dedup_hits st.Stream_compile.total_synth_error
        st.Stream_compile.degraded;
      Printf.printf "gates/sec: %.1f\n" rate;
      Printf.printf "peak heap: %d words\n" st.Stream_compile.peak_heap_words;
      (match output with Some path -> Printf.printf "wrote    : %s\n" path | None -> ())

let run input output workflow epsilon optimize estimate deadline rotation_deadline stream window
    (stack : Cli.stack) =
  Cli.exit_code @@ fun () ->
  let gate_set, chain, store = Cli.start ~say:print_endline stack in
  Option.iter
    (fun st ->
      let r = Store.recovery st in
      if r.Store.records_recovered + r.Store.records_quarantined + r.Store.torn_tails > 0 then
        Printf.printf "store    : %s — %d records recovered, %d quarantined, %d torn tails\n"
          (Store.dir st) r.Store.records_recovered r.Store.records_quarantined r.Store.torn_tails)
    store;
  Obs.with_trace ?file:stack.Cli.trace @@ fun () ->
  (* One root span over the whole compilation, so trace analysis (and
     the hotspots self-time accounting) sees a single-rooted tree. *)
  Obs.span "cli.compile" @@ fun () ->
  if stream && optimize then
    invalid_arg "--stream: --optimize is whole-circuit; windowed optimization is built in";
  if stream && estimate then
    invalid_arg "--stream: --estimate needs the whole circuit; run it on the written output";
  (* One config for every mode; compare runs it in both IRs. *)
  let ir =
    match (workflow, stream) with
    | "gridsynth", _ -> Settings.Rz_ir
    | "trasyn", _ | "compare", false -> Settings.U3_ir
    | "compare", true -> invalid_arg "--stream: workflow compare needs the whole circuit in memory"
    | w, true -> invalid_arg ("unknown workflow " ^ w ^ " (with --stream use trasyn | gridsynth)")
    | w, false -> invalid_arg ("unknown workflow " ^ w ^ " (use trasyn | gridsynth | compare)")
  in
  let cfg =
    Stream_compile.config ~epsilon ~gate_set ~ir ~window
      ~jobs:(Option.value stack.Cli.jobs ~default:(Domain.recommended_domain_count ()))
      ~deadline:(match deadline with None -> Obs.Deadline.none | Some s -> Obs.Deadline.after s)
      ?rotation_budget:rotation_deadline ?chain ()
  in
  if stream then run_stream ~input ~output cfg
  else begin
  let circuit = Qasm_reader.of_file input in
  Printf.printf "input    : %d qubits, %d gates, %d nontrivial rotations\n"
    circuit.Circuit.n_qubits (Circuit.length circuit)
    (Circuit.nontrivial_rotation_count circuit);
  let synthesized =
    if workflow = "compare" then begin
      (* Run both workflows (the paper's RQ2-RQ4 comparison), report
         the ratios, and continue with the TRASYN output. *)
      let cmp = Pipeline.compare_workflows cfg ~name:(Filename.basename input) circuit in
      Printf.printf "compare  : T ratio=%.2f  Tdepth ratio=%.2f  Clifford ratio=%.2f (gridsynth/trasyn)\n"
        cmp.Pipeline.t_ratio cmp.Pipeline.t_depth_ratio cmp.Pipeline.clifford_ratio;
      cmp.Pipeline.trasyn
    end
    else match Pipeline.run cfg circuit with Ok s -> s | Error f -> Robust.fail f
  in
  let compiled =
    if optimize then Cnot_resynth.run (Phase_folding.run synthesized.Pipeline.circuit)
    else synthesized.Pipeline.circuit
  in
  Printf.printf "setting  : %s\n" (Settings.setting_to_string synthesized.Pipeline.setting);
  Printf.printf "output   : %d gates, T=%d, Tdepth=%d, Cliffords=%d\n" (Circuit.length compiled)
    (Circuit.t_count compiled) (Circuit.t_depth compiled) (Circuit.clifford_count compiled);
  Printf.printf "synth err: %.4f summed over %d rotations\n"
    synthesized.Pipeline.total_synth_error synthesized.Pipeline.rotations_synthesized;
  report_degraded synthesized.Pipeline.degraded;
  (match Ledger.path () with
  | Some p ->
      Printf.printf "ledger   : %d records -> %s\n"
        (Obs.counter_value (Obs.counter "obs.ledger.records"))
        p
  | None -> ());
  if estimate then begin
    let e = Surface_code.estimate compiled in
    Format.printf "resources: %a@." Surface_code.pp e
  end;
  (match output with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc (Qasm.to_string compiled);
      close_out oc;
      Printf.printf "wrote    : %s\n" path)
  end;
  0

let input =
  Arg.(required & opt (some file) None & info [ "input"; "i" ] ~doc:"input OpenQASM 2.0 file")

let output = Arg.(value & opt (some string) None & info [ "output"; "o" ] ~doc:"output QASM path")

let workflow =
  Arg.(value & opt string "trasyn" & info [ "workflow"; "w" ] ~doc:"trasyn | gridsynth | compare")

let epsilon = Arg.(value & opt float 0.07 & info [ "epsilon" ] ~doc:"per-rotation error threshold")

let optimize = Arg.(value & flag & info [ "optimize" ] ~doc:"run phase folding afterwards")
let estimate = Arg.(value & flag & info [ "estimate" ] ~doc:"print a surface-code resource estimate")

let deadline =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ] ~docv:"SECONDS"
        ~doc:"whole-run wall-clock budget; expiry aborts with a structured timeout")

let rotation_deadline =
  Arg.(
    value
    & opt (some float) None
    & info [ "rotation-deadline" ] ~docv:"SECONDS"
        ~doc:"per-rotation wall-clock budget, additionally capped by --deadline")

let stream =
  Arg.(
    value & flag
    & info [ "stream" ]
        ~doc:"streaming compilation: parse, optimize over a sliding window, synthesize and emit \
              incrementally with bounded memory — the input never lives in memory as a whole; \
              output is bit-identical to the in-memory path at any --jobs")

let window =
  Arg.(
    value & opt int 64
    & info [ "window" ] ~docv:"N"
        ~doc:"sliding-window size for streaming merge/commute/phase-fold optimization (with \
              --stream; default 64)")

let cmd =
  Cmd.v
    (Cmd.info "ftcompile" ~doc:"Compile a circuit to Clifford+T via the TRASYN or GRIDSYNTH workflow")
    Term.(
      const run $ input $ output $ workflow $ epsilon $ optimize $ estimate $ deadline
      $ rotation_deadline $ stream $ window $ Cli.stack)

let () = exit (Cmd.eval' cmd)
