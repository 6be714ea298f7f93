(* The chain runner that [Synth.run_chain] folded into itself, kept as a
   test oracle: [Robust.run_chain] over [Robust.rung]s built by
   [Synth.rung_of_spec], as they were.  An adapter's [Error] became a
   [Robust.Failure_exn] inside the rung and was caught back into a
   result by the runner.  [run_chain] is the old [Synth.run_chain]
   without the store and the ledger: it bumps [synth.rotations], skips
   rungs whose backend cannot emit the gate set, and fails an unusable
   chain with the same "no backend in chain" error.  Each rung draws its
   fault under its name with [Synth.run_chain]'s key for a first
   execution, "<target_id>#0". *)

type rung = {
  name : string;
  rung_epsilon : float;
  run : Obs.Deadline.t -> Ctgate.t list * float;
}

let c_retries = Obs.counter "robust.retries"
let c_faults = Obs.counter "robust.faults.injected"
let c_deadline = Obs.counter "robust.deadline.expired"
let c_chain_failed = Obs.counter "robust.chain.failed"
let c_rotations = Obs.counter "synth.rotations"

let corrupt_word word = Ctgate.X :: word

let run_rungs ?(deadline = Obs.Deadline.none) ~key ~target rungs =
  let timeout () =
    Obs.incr c_deadline;
    Obs.incr c_chain_failed;
    Error Robust.Timeout
  in
  let rec go idx last_failure = function
    | [] ->
        Obs.incr c_chain_failed;
        Error
          (match last_failure with
          | Some f -> f
          | None -> Robust.Backend_error "empty fallback chain")
    | rung :: rest ->
        if Obs.Deadline.expired deadline then timeout ()
        else begin
          if idx > 0 then Obs.incr c_retries;
          let injected = Robust.Fault.draw rung.name ~key in
          (match injected with
          | Some (Robust.Fault.Stall s) ->
              Obs.incr c_faults;
              Unix.sleepf s
          | _ -> ());
          if Obs.Deadline.expired deadline then timeout ()
          else begin
            let outcome =
              match injected with
              | Some (Robust.Fault.Fail | Robust.Fault.Torn | Robust.Fault.Enospc) ->
                  Obs.incr c_faults;
                  Error (Robust.Backend_error (rung.name ^ ": injected failure"))
              | _ -> (
                  match rung.run deadline with
                  | word, claimed ->
                      let word =
                        match injected with
                        | Some Robust.Fault.Corrupt ->
                            Obs.incr c_faults;
                            corrupt_word word
                        | _ -> word
                      in
                      Robust.verify ~target ~epsilon:rung.rung_epsilon ~claimed word
                      |> Result.map (fun d -> (word, d))
                  | exception Robust.Failure_exn f -> Error f
                  | exception Gridsynth.Synthesis_failed msg -> Error (Robust.Backend_error msg)
                  | exception Invalid_argument msg ->
                      Error (Robust.Backend_error (rung.name ^ ": " ^ msg))
                  | exception Failure msg -> Error (Robust.Backend_error (rung.name ^ ": " ^ msg)))
            in
            match outcome with
            | Ok (word, d) ->
                if idx > 0 then Obs.incr (Obs.counter ("robust.fallback." ^ rung.name));
                Ok
                  {
                    Robust.word;
                    distance = d;
                    backend = rung.name;
                    fallbacks = idx;
                    rung_epsilon = rung.rung_epsilon;
                  }
            | Error _ when Obs.Deadline.expired deadline -> timeout ()
            | Error f -> go (idx + 1) (Some f) rest
          end
        end
  in
  go 0 None rungs

let rung_of_spec ~config:(base : Synth.config) ~target (spec : Synth.rung_spec) =
  let eps = Float.max (base.Synth.epsilon *. spec.Synth.eps_scale) spec.Synth.eps_floor in
  {
    name = spec.Synth.rung_name;
    rung_epsilon = eps;
    run =
      (fun deadline ->
        let cfg = spec.Synth.tweak { base with Synth.epsilon = eps; deadline } in
        let module B = (val spec.Synth.backend) in
        match B.synthesize target cfg with
        | Ok (word, distance) -> (word, distance)
        | Error f -> Robust.fail f);
  }

let run_chain ?deadline ~config:(cfg : Synth.config) chain target =
  let deadline =
    match deadline with
    | Some d -> Obs.Deadline.earliest d cfg.Synth.deadline
    | None -> cfg.Synth.deadline
  in
  Obs.incr c_rotations;
  let gs = Synth.gate_set_name cfg in
  let usable = List.filter (fun spec -> Synth.backend_supports spec.Synth.backend gs) chain in
  if usable = [] then
    Error
      (Robust.Backend_error
         (Printf.sprintf "no backend in chain %S supports gate set %S" (Synth.chain_id chain) gs))
  else
    run_rungs ~deadline
      ~key:(fun () -> Synth.target_id target ^ "#0")
      ~target:(Synth.target_mat2 target)
      (List.map (rung_of_spec ~config:cfg ~target) usable)
