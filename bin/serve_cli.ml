(* Long-running batch synthesis server: line-delimited JSON requests on
   stdin (or a Unix-domain socket), one JSON response line per request
   on stdout (or the socket).  Misses run through the Synth registry
   with retry/backoff; the persistent store serves hits and absorbs
   fresh words; SIGTERM/SIGINT (and EOF, and the shutdown op) drain
   in-flight work and write a final index snapshot, so the next start
   is warm.

   dune exec bin/serve_cli.exe -- --store /tmp/tgates-store <requests.jsonl

   Protocol and durability semantics: lib/pipeline/server.mli.
   All diagnostics go to stderr; stdout carries only responses. *)

open Cmdliner

let stop_requested = Atomic.make false

(* Feed fd's lines to the engine, polling the stop flag between reads
   so a signal interrupts an idle server within ~100 ms.  A shutdown op
   raises the stop flag too, so in socket mode the accept loop exits
   instead of waiting for the next client. *)
let pump_lines fd server =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let submit line =
    if Server.submit_line server line = `Stop then begin
      Atomic.set stop_requested true;
      true
    end
    else false
  in
  let rec loop () =
    if Atomic.get stop_requested then ()
    else
      match Unix.select [ fd ] [] [] 0.1 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | [], _, _ -> loop ()
      | _ -> (
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
          | 0 ->
              (* EOF; a final unterminated line still counts. *)
              if Buffer.length buf > 0 then ignore (submit (Buffer.contents buf))
          | n ->
              let stopped = ref false in
              for i = 0 to n - 1 do
                match Bytes.get chunk i with
                | '\n' ->
                    let line = Buffer.contents buf in
                    Buffer.clear buf;
                    if not !stopped then stopped := submit line
                | c -> Buffer.add_char buf c
              done;
              if not !stopped then loop ())
  in
  loop ()

(* stdin/stdout transport: the process's whole life is one client. *)
let serve_stdio make_server =
  let emit_mutex = Mutex.create () in
  let emit s =
    Mutex.lock emit_mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock emit_mutex)
      (fun () ->
        print_string s;
        print_newline ();
        flush stdout)
  in
  let server = make_server emit in
  pump_lines Unix.stdin server;
  server

(* Unix-domain socket transport: one client at a time, each
   disconnection loops back to accept.  The server engine (and its
   queue and store) outlives individual clients. *)
let serve_socket path make_server =
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 8;
  Printf.eprintf "serve: listening on %s\n%!" path;
  let client : Unix.file_descr option ref = ref None in
  let client_mutex = Mutex.create () in
  let emit s =
    Mutex.lock client_mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock client_mutex)
      (fun () ->
        match !client with
        | Some fd -> (
            let line = s ^ "\n" in
            try ignore (Unix.write_substring fd line 0 (String.length line))
            with Unix.Unix_error _ -> ())
        | None -> ())
  in
  let server = make_server emit in
  let rec accept_loop () =
    if not (Atomic.get stop_requested) then begin
      match Unix.select [ sock ] [] [] 0.1 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
      | [], _, _ -> accept_loop ()
      | _ ->
          let fd, _ = Unix.accept sock in
          Mutex.lock client_mutex;
          client := Some fd;
          Mutex.unlock client_mutex;
          pump_lines fd server;
          Mutex.lock client_mutex;
          client := None;
          Mutex.unlock client_mutex;
          (try Unix.close fd with Unix.Unix_error _ -> ());
          accept_loop ()
    end
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ -> ())
    accept_loop;
  server

let run store_dir rescan socket epsilon gate_set gateset_files tables backend_chain workers
    queue_limit max_retries backoff_base backoff_cap request_deadline planner_jobs seed faults
    ledger_out metrics_out metrics_interval prom_out trace_out =
  match
    Robust.guarded @@ fun () ->
    (match trace_out with Some p -> Obs.trace_to_file p | None -> ());
    List.iter
      (fun path ->
        match Gateset.load_file path with
        | Ok gs -> Printf.eprintf "serve: gate set %s loaded from %s\n%!" gs.Gateset.name path
        | Error e -> invalid_arg (Printf.sprintf "--gate-set-file %s: %s" path e))
      gateset_files;
    List.iter
      (fun path ->
        match Tablegen.load_and_provide path with
        | Ok (gs, table) ->
            Printf.eprintf "serve: table %s provided for gate set %s (max_t %d)\n%!" path gs
              table.Ma_table.max_t
        | Error e -> invalid_arg (Printf.sprintf "--load-table %s: %s" path e))
      tables;
    let gate_set =
      match Gateset.find gate_set with
      | Some gs -> gs
      | None ->
          invalid_arg
            (Printf.sprintf "--gate-set: unknown gate set %S (known: %s)" gate_set
               (String.concat ", " (Gateset.names ())))
    in
    (match faults with
    | None -> ()
    | Some s -> (
        match Robust.Fault.parse s with
        | Error e -> invalid_arg ("--faults: " ^ e)
        | Ok (fseed, specs) -> Robust.Fault.configure ?seed:fseed specs));
    (match ledger_out with Some p -> Ledger.to_file p | None -> ());
    (match (metrics_out, prom_out) with
    | None, None -> ()
    | stream, prom -> Metrics.start ?interval:metrics_interval ?stream ?prom ());
    let chain =
      match backend_chain with
      | None -> Server.default_config.Server.chain
      | Some s -> (
          match Synth.parse_chain s with
          | Ok c -> c
          | Error e -> invalid_arg ("--backend-chain: " ^ e))
    in
    let store =
      match store_dir with
      | None -> None
      | Some d -> (
          match Store.open_store ~rescan d with
          | Error e -> invalid_arg ("--store: " ^ e)
          | Ok st ->
              let r = Store.recovery st in
              Printf.eprintf
                "serve: store %s — %d entries (%d segments trusted, %d scanned; %d records \
                 recovered, %d quarantined, %d torn tails)\n\
                 %!"
                d (Store.size st) r.Store.segments_trusted r.Store.segments_scanned
                r.Store.records_recovered r.Store.records_quarantined r.Store.torn_tails;
              Synth.set_store (Some st);
              Some st)
    in
    let cfg =
      {
        Server.epsilon;
        gate_set;
        chain;
        workers;
        queue_limit;
        max_retries;
        backoff_base_s = backoff_base;
        backoff_cap_s = backoff_cap;
        request_deadline_s = request_deadline;
        planner_jobs;
        seed;
      }
    in
    (* Drain on SIGTERM/SIGINT rather than dying mid-request. *)
    let arm signal =
      try Sys.set_signal signal (Sys.Signal_handle (fun _ -> Atomic.set stop_requested true))
      with Invalid_argument _ | Sys_error _ -> ()
    in
    arm Sys.sigterm;
    arm Sys.sigint;
    let make_server emit =
      let server = Server.create ?store ~emit cfg in
      (* Structured one-line startup banner: everything an operator (or
         a log scraper) needs to find and correlate this boot. *)
      let open Obs.Json in
      let opt_str = function Some s -> Str s | None -> Null in
      Printf.eprintf "serve: %s\n%!"
        (to_string
           (Obj
              [
                ("ev", Str "serve.start");
                ("pid", Num (float_of_int (Unix.getpid ())));
                ("trace_id", Str (Server.trace_id server));
                ("store", opt_str store_dir);
                ("socket", (match socket with Some p -> Str p | None -> Str "stdio"));
                ("workers", Num (float_of_int (max 1 workers)));
                ( "jobs",
                  match planner_jobs with Some j -> Num (float_of_int j) | None -> Str "auto" );
                ("queue_limit", Num (float_of_int (max 1 queue_limit)));
                ("epsilon", Num epsilon);
                ("gate_set", Str gate_set.Gateset.name);
              ]));
      server
    in
    let server =
      match socket with
      | None -> serve_stdio make_server
      | Some path -> serve_socket path make_server
    in
    Server.drain server;
    Synth.set_store None;
    (match store with
    | Some st ->
        Store.close st;
        Printf.eprintf "serve: store closed with %d entries\n%!" (Store.size st)
    | None -> ());
    (* Drain report: uptime plus request totals, from the same snapshot
       the stats op serves. *)
    let stats = Server.stats_json server in
    let n k = match Obs.Json.member k stats with Some (Obs.Json.Num f) -> f | _ -> 0.0 in
    Printf.eprintf
      "serve: drained after uptime_s=%.3f — %.0f requests (%.0f served, %.0f failed, %.0f shed, \
       %.0f retries), exiting\n\
       %!"
      (Server.uptime_s server) (n "requests") (n "served") (n "failed") (n "shed") (n "retries")
  with
  | Ok () -> 0
  | Error msg ->
      prerr_endline msg;
      1

let store_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "store" ] ~docv:"DIR"
        ~doc:"persistent synthesis store directory (created if needed); hits are served without \
              synthesis, fresh words are written back, and shutdown snapshots the index for a \
              warm restart")

let rescan =
  Arg.(
    value & flag
    & info [ "rescan" ]
        ~doc:"ignore the store's index snapshot and CRC-rescan every segment at open")

let socket =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"serve a Unix-domain socket at $(docv) instead of stdin/stdout (one client at a \
              time)")

let epsilon =
  Arg.(value & opt float 0.07 & info [ "epsilon" ] ~doc:"default per-rotation error threshold")

let gate_set =
  Arg.(
    value & opt string "cliffordt"
    & info [ "gate-set" ] ~docv:"NAME"
        ~doc:"default gate set for requests that omit gate_set (a built-in name or one loaded \
              with --gate-set-file)")

let gateset_files =
  Arg.(
    value
    & opt_all string []
    & info [ "gate-set-file" ] ~docv:"FILE"
        ~doc:"register a gate-set descriptor from a JSON config file (repeatable)")

let tables =
  Arg.(
    value
    & opt_all string []
    & info [ "load-table" ] ~docv:"FILE"
        ~doc:"load a tgates-table/v1 file generated by tgates-tablegen and provide it to the \
              synthesis stack under its gate-set name (repeatable)")

let backend_chain =
  Arg.(
    value
    & opt (some string) None
    & info [ "backend-chain" ] ~docv:"NAMES"
        ~doc:"fallback chain for misses, e.g. 'trasyn,gridsynth,sk' (default: the standard Rz \
              ladder)")

let workers =
  Arg.(value & opt int 1 & info [ "workers" ] ~docv:"N" ~doc:"worker threads consuming the queue")

let queue_limit =
  Arg.(
    value & opt int 64
    & info [ "queue-limit" ] ~docv:"N"
        ~doc:"bounded admission queue size; further requests are shed with an 'overloaded' \
              response")

let max_retries =
  Arg.(
    value & opt int 3
    & info [ "max-retries" ] ~docv:"N"
        ~doc:"retry budget for transient failures (backend errors, rung timeouts)")

let backoff_base =
  Arg.(
    value & opt float 0.05
    & info [ "backoff-base" ] ~docv:"SECONDS" ~doc:"first retry backoff; doubles per retry")

let backoff_cap =
  Arg.(value & opt float 1.0 & info [ "backoff-cap" ] ~docv:"SECONDS" ~doc:"backoff ceiling")

let request_deadline =
  Arg.(
    value
    & opt (some float) None
    & info [ "request-deadline" ] ~docv:"SECONDS"
        ~doc:"default per-request wall-clock budget (requests may override with deadline_s)")

let planner_jobs =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:"planner worker domains per request (a single rotation runs on one)")

let seed =
  Arg.(value & opt int 0 & info [ "seed" ] ~doc:"jitter RNG seed (deterministic backoff)")

let faults =
  Arg.(
    value
    & opt (some string) None
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:"inject deterministic faults (TGATES_FAULTS grammar), e.g. \
              'store.append=torn,seed=7'")

let ledger_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "ledger" ] ~docv:"FILE"
        ~doc:"append one tgates-ledger/v1 provenance record per served rotation to $(docv)")

let metrics_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:"stream live tgates-metrics/v1 snapshots (JSONL) to $(docv)")

let metrics_interval =
  Arg.(
    value
    & opt (some float) None
    & info [ "metrics-interval" ] ~docv:"SECONDS" ~doc:"sampler interval (default 0.25)")

let prom_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "prom-out" ] ~docv:"FILE"
        ~doc:"write a Prometheus text exposition, atomically replaced per tick")

let trace_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"write a JSONL span trace to $(docv); spans carry req.trace/req.id attributes, so \
              'tgates-trace requests' reassembles per-request waterfalls")

let cmd =
  Cmd.v
    (Cmd.info "tgates-serve"
       ~doc:"Durable batch synthesis server over the persistent store (line-delimited JSON)")
    Term.(
      const run $ store_dir $ rescan $ socket $ epsilon $ gate_set $ gateset_files $ tables
      $ backend_chain $ workers $ queue_limit $ max_retries $ backoff_base $ backoff_cap
      $ request_deadline $ planner_jobs $ seed $ faults $ ledger_out $ metrics_out
      $ metrics_interval $ prom_out $ trace_out)

let () = exit (Cmd.eval' cmd)
