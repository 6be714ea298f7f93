(* Command-line TRASYN: synthesize U3(θ,φ,λ) into a Clifford+T word
   through the trasyn backend of [Synth].

   dune exec bin/trasyn_cli.exe -- --theta 0.4 --phi 1.1 --lam -0.7 --epsilon 0.01 *)

open Cmdliner

let run theta phi lam epsilon budget sites samples trace ledger =
  Cli.exit_code @@ fun () ->
  if sites < 1 then Cli.reject "--sites" (Printf.sprintf "must be >= 1 (got %d)" sites);
  if budget < 0 then Cli.reject "--budget" (Printf.sprintf "must be >= 0 (got %d)" budget);
  if budget > Ma_table.max_depth then
    Cli.reject "--budget" (Printf.sprintf "must be <= %d (got %d)" Ma_table.max_depth budget);
  if samples < 1 then Cli.reject "--samples" (Printf.sprintf "must be >= 1 (got %d)" samples);
  (match epsilon with
  | Some e when not (e > 0.0 && Float.is_finite e) ->
      invalid_arg "--epsilon must be positive and finite"
  | _ -> ());
  Cli.arm_ledger ledger;
  Obs.with_trace ?file:trace @@ fun () ->
  Obs.span "cli.trasyn" @@ fun () ->
  let budgets = List.init sites (fun _ -> budget) in
  let trasyn = { Trasyn.default_config with table_t = budget; samples } in
  (* No --epsilon means best effort: ε = 0 is never met, so the backend
     burns the full budget and reports the best word seen. *)
  let config = Synth.config ~trasyn ~budgets ~epsilon:(Option.value epsilon ~default:0.0) () in
  match Cli.direct "trasyn" (Synth.Unitary (Mat2.u3 theta phi lam)) config with
  | Error f -> Robust.fail f
  | Ok (seq, distance) -> (
      Printf.printf "sequence : %s\n" (Ctgate.seq_to_string seq);
      Printf.printf "T count  : %d\n" (Ctgate.t_count seq);
      Printf.printf "Cliffords: %d\n" (Ctgate.clifford_count seq);
      Printf.printf "distance : %.4e\n" distance;
      match epsilon with
      | Some e when distance > e ->
          prerr_endline "warning: threshold not met; raise --sites or --budget";
          1
      | _ -> 0)

let theta = Arg.(required & opt (some float) None & info [ "theta" ] ~doc:"U3 theta angle")
let phi = Arg.(value & opt float 0.0 & info [ "phi" ] ~doc:"U3 phi angle")
let lam = Arg.(value & opt float 0.0 & info [ "lam" ] ~doc:"U3 lambda angle")
let epsilon = Arg.(value & opt (some float) None & info [ "epsilon" ] ~doc:"target unitary distance")
let budget = Arg.(value & opt int 8 & info [ "budget" ] ~doc:"T budget per MPS site (table depth)")
let sites = Arg.(value & opt int 3 & info [ "sites" ] ~doc:"maximum number of MPS sites")
let samples = Arg.(value & opt int 1024 & info [ "samples" ] ~doc:"number of sampled sequences (k)")

let cmd =
  Cmd.v
    (Cmd.info "trasyn" ~doc:"Tensor-network synthesis of single-qubit unitaries over Clifford+T")
    Term.(const run $ theta $ phi $ lam $ epsilon $ budget $ sites $ samples $ Cli.trace $ Cli.ledger)

let () = exit (Cmd.eval' cmd)
