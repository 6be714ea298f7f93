(* Command-line GRIDSYNTH: approximate Rz(θ) over Clifford+T through
   the gridsynth backend of [Synth].

   dune exec bin/gridsynth_cli.exe -- --theta 0.61 --epsilon 1e-4 *)

open Cmdliner

let run theta epsilon trace ledger_out =
  match
    Robust.guarded @@ fun () ->
    (match ledger_out with Some p -> Ledger.to_file p | None -> ());
    Obs.with_trace ?file:trace @@ fun () ->
    Obs.span "cli.gridsynth" @@ fun () ->
    let b = Synth.find_exn "gridsynth" in
    let module B = (val b) in
    let target = Synth.Rz theta in
    let config = Synth.config ~epsilon () in
    let t0 = Obs.Clock.elapsed_s () in
    let result = B.synthesize target config in
    (* The direct backend call is recorded as a one-rung chain. *)
    if Ledger.enabled () then
      Ledger.record
        (Synth.ledger_record ~config [ Synth.rung b ] target ~source:`Fresh
           ~wall_s:(Obs.Clock.elapsed_s () -. t0)
           (Result.map
              (fun (word, distance) ->
                { Robust.word; distance; backend = B.name; fallbacks = 0; rung_epsilon = epsilon })
              result));
    match result with
    | Error f -> Robust.fail f
    | Ok (seq, distance) ->
        Printf.printf "sequence : %s\n" (Ctgate.seq_to_string seq);
        Printf.printf "T count  : %d\n" (Ctgate.t_count seq);
        Printf.printf "Cliffords: %d\n" (Ctgate.clifford_count seq);
        Printf.printf "distance : %.4e\n" distance
  with
  | Ok () -> 0
  | Error msg ->
      prerr_endline msg;
      1

let theta = Arg.(required & opt (some float) None & info [ "theta" ] ~doc:"rotation angle")
let epsilon = Arg.(value & opt float 1e-3 & info [ "epsilon" ] ~doc:"target unitary distance")

let trace =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"write an observability trace (spans + metrics, JSONL) to $(docv); the TGATES_TRACE \
              environment variable does the same")

let ledger_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "ledger" ] ~docv:"FILE"
        ~doc:"append a tgates-ledger/v1 provenance record (JSONL) to $(docv); the TGATES_LEDGER \
              environment variable does the same")

let cmd =
  Cmd.v
    (Cmd.info "gridsynth" ~doc:"Ross-Selinger Clifford+T approximation of z-rotations")
    Term.(const run $ theta $ epsilon $ trace $ ledger_out)

let () = exit (Cmd.eval' cmd)
