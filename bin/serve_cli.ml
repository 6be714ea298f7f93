(* Long-running batch synthesis server: line-delimited JSON requests on
   stdin (or a Unix-domain socket), one JSON response line per request
   on stdout (or the socket).  Each rotation is resolved under the
   engine's synthesis policy for its op; misses run its chain as
   planner jobs with retry/backoff.  The persistent store serves hits
   and absorbs fresh words, each flushed as it is put, so the next
   start is warm; SIGTERM/SIGINT (and EOF, and the shutdown op) drain
   in-flight work.

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

(* stdin/stdout transport: the process's whole life is one client.
   The server calls [emit] under its own lock, one response at a time. *)
let serve_stdio make_server =
  let emit s =
    print_string s;
    print_newline ()
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

let run socket epsilon workers queue_limit max_retries backoff_base backoff_cap
    request_deadline (stack : Cli.stack) =
  Cli.exit_code @@ fun () ->
  let gate_set, chain, store = Cli.start ~say:(Printf.eprintf "serve: %s\n%!") stack in
  Option.iter
    (fun st ->
      let r = Store.recovery st in
      Printf.eprintf
        "serve: store %s — %d entries (%d segments scanned; %d records recovered, %d \
         quarantined, %d torn tails)\n\
         %!"
        (Store.dir st) (Store.size st) r.Store.segments_scanned
        r.Store.records_recovered r.Store.records_quarantined r.Store.torn_tails)
    store;
  let planner_jobs = stack.Cli.jobs in
  Obs.with_trace ?file:stack.Cli.trace @@ fun () ->
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
    let server = Server.create ~emit cfg in
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
              ("store", opt_str stack.Cli.store);
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
    (Server.uptime_s server) (n "requests") (n "served") (n "failed") (n "shed") (n "retries");
  0

let socket =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"serve a Unix-domain socket at $(docv) instead of stdin/stdout (one client at a \
              time)")

let epsilon =
  Arg.(value & opt float 0.07 & info [ "epsilon" ] ~doc:"default per-rotation error threshold")

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
        ~doc:"retry budget for transient failures (backend errors)")

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

let cmd =
  Cmd.v
    (Cmd.info "tgates-serve"
       ~doc:"Durable batch synthesis server over the persistent store (line-delimited JSON)")
    Term.(
      const run $ socket $ epsilon $ workers $ queue_limit $ max_retries $ backoff_base
      $ backoff_cap $ request_deadline $ Cli.stack)

let () = exit (Cmd.eval' cmd)
