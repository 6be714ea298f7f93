(* Command-line GRIDSYNTH: approximate Rz(θ) over Clifford+T through
   the gridsynth backend of [Synth].

   dune exec bin/gridsynth_cli.exe -- --theta 0.61 --epsilon 1e-4 *)

open Cmdliner

let run theta epsilon trace ledger =
  Cli.exit_code @@ fun () ->
  Cli.arm_ledger ledger;
  Obs.with_trace ?file:trace @@ fun () ->
  Obs.span "cli.gridsynth" @@ fun () ->
  match Cli.direct "gridsynth" (Synth.Rz theta) (Synth.config ~epsilon ()) with
  | Error f -> Robust.fail f
  | Ok (seq, distance) ->
      Printf.printf "sequence : %s\n" (Ctgate.seq_to_string seq);
      Printf.printf "T count  : %d\n" (Ctgate.t_count seq);
      Printf.printf "Cliffords: %d\n" (Ctgate.clifford_count seq);
      Printf.printf "distance : %.4e\n" distance;
      0

let theta = Arg.(required & opt (some float) None & info [ "theta" ] ~doc:"rotation angle")
let epsilon = Arg.(value & opt float 1e-3 & info [ "epsilon" ] ~doc:"target unitary distance")

let cmd =
  Cmd.v
    (Cmd.info "gridsynth" ~doc:"Ross-Selinger Clifford+T approximation of z-rotations")
    Term.(const run $ theta $ epsilon $ Cli.trace $ Cli.ledger)

let () = exit (Cmd.eval' cmd)
