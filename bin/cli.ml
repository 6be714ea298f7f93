(* The command-line front end the synthesis binaries share: one
   Cmdliner term per shared flag and one function per start-up step, so
   each binary declares only its own flags and prints only its own
   report.  Every setup step runs inside [exit_code], where a bad value
   becomes one "error: invalid argument: --flag: ..." line on stderr
   and exit code 1. *)

open Cmdliner

let string_opt names ~docv doc = Arg.(value & opt (some string) None & info names ~docv ~doc)

(* A rejected flag value: [Robust.guarded] turns this into its error
   line. *)
let reject flag msg = invalid_arg (flag ^ ": " ^ msg)

let exit_code f =
  match Robust.guarded f with
  | Ok code -> code
  | Error msg ->
      prerr_endline msg;
      1

(* ------------------------------------------------------------------ *)
(* Trace and ledger: every synthesis binary                            *)
(* ------------------------------------------------------------------ *)

let trace =
  string_opt [ "trace" ] ~docv:"FILE"
    "write an observability trace (spans + metrics, JSONL) to $(docv); the TGATES_TRACE \
     environment variable does the same"

let ledger =
  string_opt [ "ledger" ] ~docv:"FILE"
    "append one tgates-ledger/v1 provenance record (JSONL) per synthesized rotation to $(docv); \
     the TGATES_LEDGER environment variable does the same"

let arm_ledger = Option.iter Ledger.to_file

(* ------------------------------------------------------------------ *)
(* Gate sets                                                           *)
(* ------------------------------------------------------------------ *)

type gate_set = { name : string; files : string list; tables : string list }

let gate_set ~tables =
  let files names ~docv doc = Arg.(value & opt_all string [] & info names ~docv ~doc) in
  Term.(
    const (fun name files tables -> { name; files; tables })
    $ Arg.(
        value & opt string "cliffordt"
        & info [ "gate-set" ] ~docv:"NAME"
            ~doc:"gate set: a built-in name or one registered with --gate-set-file")
    $ files [ "gate-set-file" ] ~docv:"FILE"
        "register a gate-set descriptor from a JSON config file (repeatable)"
    $
    if tables then
      files [ "load-table" ] ~docv:"FILE"
        "load a tgates-table/v1 file generated by tgates-tablegen and provide it to the \
         synthesis stack under its gate-set name (repeatable); gate sets other than the \
         built-in Clifford+T need one"
    else Term.const [])

(* Register the descriptor files and provide the tables, acknowledging
   each through [say], then resolve the name. *)
let resolve_gate_set ~say g =
  List.iter
    (fun path ->
      match Gateset.load_file path with
      | Ok gs -> say (Printf.sprintf "gate set : %s loaded from %s" gs.Gateset.name path)
      | Error e -> reject ("--gate-set-file " ^ path) e)
    g.files;
  List.iter
    (fun path ->
      match Tablegen.load_and_provide path with
      | Ok (gs, table) ->
          say
            (Printf.sprintf "table    : %s provided for gate set %s (max_t %d, %d entries)" path
               gs table.Ma_table.max_t
               (Array.length table.Ma_table.entries))
      | Error e -> reject ("--load-table " ^ path) e)
    g.tables;
  match Gateset.find g.name with
  | Some gs -> gs
  | None ->
      reject "--gate-set"
        (Printf.sprintf "unknown gate set %S (known: %s)" g.name
           (String.concat ", " (Gateset.names ())))

(* ------------------------------------------------------------------ *)
(* The synthesis stack: compile_cli and serve_cli                      *)
(* ------------------------------------------------------------------ *)

type stack = {
  gate_set : gate_set;
  faults : string option;
  backend_chain : string option;
  ledger : string option;
  store : string option;
  metrics_out : string option;
  metrics_interval : float option;
  prom_out : string option;
  jobs : int option;
  trace : string option;
}

let stack =
  let make gate_set faults backend_chain ledger store metrics_out metrics_interval prom_out jobs
      trace =
    { gate_set; faults; backend_chain; ledger; store; metrics_out; metrics_interval; prom_out;
      jobs; trace }
  in
  Term.(
    const make $ gate_set ~tables:true
    $ string_opt [ "faults" ] ~docv:"SPEC"
        "inject deterministic faults, e.g. 'trasyn=fail' or '*=corrupt@0.25,seed=7'; same \
         grammar as the TGATES_FAULTS environment variable"
    $ string_opt [ "backend-chain" ] ~docv:"NAMES"
        "comma-separated synthesis fallback chain, e.g. 'trasyn,gridsynth,sk'; default: the \
         standard ladder"
    $ ledger
    $ string_opt [ "store" ] ~docv:"DIR"
        "persistent synthesis store directory (created if needed): stored words with verified \
         distance <= epsilon are served without synthesis, and fresh words are written back for \
         the next run"
    $ string_opt [ "metrics-out" ] ~docv:"FILE"
        "stream live tgates-metrics/v1 snapshots (JSONL) to $(docv) from a background sampler; \
         the TGATES_METRICS environment variable does the same"
    $ Arg.(
        value
        & opt (some float) None
        & info [ "metrics-interval" ] ~docv:"SECONDS"
            ~doc:"sampler interval for --metrics-out / --prom-out (default 0.25); the \
                  TGATES_METRICS_INTERVAL environment variable does the same")
    $ string_opt [ "prom-out" ] ~docv:"FILE"
        "write a Prometheus text exposition of every metric to $(docv), atomically replaced on \
         each sampler tick; the TGATES_METRICS_PROM environment variable does the same"
    $ Arg.(
        value
        & opt (some int) None
        & info [ "jobs"; "j" ] ~docv:"N"
            ~doc:"planner worker domains for rotation synthesis (default: the runtime's \
                  recommended domain count); output is bit-identical whatever the value")
    $ trace)

(* An environment variable that is set and not blank. *)
let env name = match Sys.getenv_opt name with Some v when String.trim v <> "" -> Some v | _ -> None

(* Start the stack in this order: jobs, gate set and its step-0 table,
   faults, chain, ledger, store (armed for every chain run and closed at
   exit), sampler.  Returns the gate set, the chain ([None]: the
   caller's default) and the store. *)
let start ~say s =
  Option.iter (fun j -> if j < 1 then reject "--jobs" (Printf.sprintf "must be >= 1 (got %d)" j)) s.jobs;
  let gate_set = resolve_gate_set ~say s.gate_set in
  Result.iter_error (reject "--gate-set") (Ma_table.find_for ~gate_set:gate_set.Gateset.name 1);
  (* A --faults flag wins over TGATES_FAULTS.  The variable is parsed
     here, not at the first draw, so a malformed value is refused
     before the run starts. *)
  let arm_faults source spec =
    match Robust.Fault.parse spec with
    | Error e -> reject source e
    | Ok (seed, specs) -> Robust.Fault.configure ?seed specs
  in
  (match (s.faults, env "TGATES_FAULTS") with
  | Some spec, _ -> arm_faults "--faults" spec
  | None, Some spec -> arm_faults "TGATES_FAULTS" spec
  | None, None -> ());
  let chain =
    Option.map
      (fun names ->
        match Synth.parse_chain names with Ok c -> c | Error e -> reject "--backend-chain" e)
      s.backend_chain
  in
  arm_ledger s.ledger;
  let store =
    Option.map
      (fun dir ->
        match Store.open_store dir with
        | Error e -> reject "--store" e
        | Ok st ->
            Synth.set_store (Some st);
            at_exit (fun () -> Store.close st);
            st)
      s.store
  in
  (* Each metrics flag wins over its environment variable. *)
  let or_env flag name = match flag with Some _ -> flag | None -> env name in
  (match (or_env s.metrics_out "TGATES_METRICS", or_env s.prom_out "TGATES_METRICS_PROM") with
  | None, None -> ()
  | stream, prom ->
      let interval =
        match s.metrics_interval with
        | Some _ as i -> i
        | None -> Option.bind (env "TGATES_METRICS_INTERVAL") float_of_string_opt
      in
      Metrics.start ?interval ?stream ?prom ());
  (gate_set, chain, store)

(* ------------------------------------------------------------------ *)
(* One backend, called directly: trasyn_cli and gridsynth_cli          *)
(* ------------------------------------------------------------------ *)

(* The call is recorded in the ledger as a one-rung chain. *)
let direct name target (config : Synth.config) =
  let b = Synth.find_exn name in
  let module B = (val b) in
  let t0 = Obs.Clock.elapsed_s () in
  let result = B.synthesize target config in
  if Ledger.enabled () then
    Ledger.record
      (Synth.ledger_record ~config [ Synth.rung b ] target ~source:`Fresh
         ~wall_s:(Obs.Clock.elapsed_s () -. t0)
         (match result with
         | Ok (word, distance) ->
             Ok
               {
                 Robust.word;
                 distance;
                 backend = B.name;
                 fallbacks = 0;
                 rung_epsilon = config.Synth.epsilon;
               }
         | Error f -> Error (f, 1)));
  result
