(* server_smoke: end-to-end gate on the server's health telemetry,
   wired into @runtest (and @telemetry):

   1. start serve_cli on a Unix-domain socket with --store, --ledger,
      --trace and --prom-out, and drive it with live traffic (ping, two
      rz singles, a batch repeating an angle of a single and one of its
      own, a u3 single, which TRASYN must answer, stats, shutdown);
   2. the stats response must be a tgates-server-stats/v1 snapshot with
      a trace_id, positive uptime_s, reconciling per-command counters,
      populated latency/queue-wait quantiles (p50 through p999) and a
      non-empty slowest-requests ring;
   3. every synthesis response's request_id must appear on exactly one
      ledger record, and vice versa — wire responses and provenance
      reconcile;
   4. `tgates-trace requests` on the server's trace must reassemble
      exactly the synthesis requests (batch elements folded under their
      batch) and pass a loose --fail-above latency gate;
   5. the exposition the server leaves at exit must count the traffic
      as the stats op does: every request line sent, every rotation
      answered ok (singles and batch elements alike), the rz singles.

   The executables arrive as argv: SERVE_CLI TRACE_CLI. *)

module J = Obs.Json

let failf fmt = Printf.ksprintf (fun s -> prerr_endline ("server_smoke: FAIL: " ^ s); exit 1) fmt

let dir =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "tgates-server-smoke.%d" (Unix.getpid ()))

let rec rm_rf p =
  match Unix.lstat p with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      (try Unix.rmdir p with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink p with Unix.Unix_error _ -> ())

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let () =
  if Array.length Sys.argv < 3 then failf "usage: server_smoke SERVE_CLI TRACE_CLI";
  let serve_cli = Sys.argv.(1) and trace_cli = Sys.argv.(2) in
  rm_rf dir;
  Unix.mkdir dir 0o700;
  let sock_path = Filename.concat dir "serve.sock" in
  let store_dir = Filename.concat dir "store" in
  let ledger_path = Filename.concat dir "ledger.jsonl" in
  let trace_path = Filename.concat dir "trace.jsonl" in
  let log_path = Filename.concat dir "serve.log" in
  let prom_path = Filename.concat dir "metrics.prom" in

  (* 1: the server child on a socket, with every telemetry sink armed. *)
  let log_fd = Unix.openfile log_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600 in
  let null_fd = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process serve_cli
      [|
        serve_cli; "--socket"; sock_path; "--store"; store_dir; "--ledger"; ledger_path;
        "--trace"; trace_path; "--prom-out"; prom_path; "--epsilon"; "0.3"; "-j"; "2";
      |]
      null_fd Unix.stdout log_fd
  in
  Unix.close null_fd;
  Unix.close log_fd;
  let die fmt =
    Printf.ksprintf
      (fun msg ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        (* The child is already reaped when a check after its exit fails. *)
        (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
        let log = try read_file log_path with _ -> "" in
        prerr_endline ("server_smoke: FAIL: " ^ msg);
        prerr_endline ("server log:\n" ^ log);
        rm_rf dir;
        exit 1)
      fmt
  in
  let rec await_socket tries =
    if not (Sys.file_exists sock_path) then
      if tries <= 0 then die "server did not bind %s" sock_path
      else begin
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> die "server exited before binding its socket");
        Unix.sleepf 0.05;
        await_socket (tries - 1)
      end
  in
  await_socket 300;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let rec connect tries =
    match Unix.connect fd (Unix.ADDR_UNIX sock_path) with
    | () -> ()
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) when tries > 0 ->
        Unix.sleepf 0.05;
        connect (tries - 1)
    | exception Unix.Unix_error (e, _, _) -> die "connect: %s" (Unix.error_message e)
  in
  connect 100;
  let lines_sent = ref 0 in
  let send line =
    incr lines_sent;
    let line = line ^ "\n" in
    let rec go off =
      if off < String.length line then
        match Unix.write_substring fd line off (String.length line - off) with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
        | n -> go (off + n)
    in
    go 0
  in
  let rbuf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let pending = Queue.create () in
  let rec recv () =
    if not (Queue.is_empty pending) then
      match J.parse (Queue.pop pending) with
      | Ok j -> j
      | Error e -> die "response is not JSON: %s" e
    else
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> recv ()
      | 0 -> die "server closed the connection early"
      | n ->
          for i = 0 to n - 1 do
            match Bytes.get chunk i with
            | '\n' ->
                Queue.push (Buffer.contents rbuf) pending;
                Buffer.clear rbuf
            | c -> Buffer.add_char rbuf c
          done;
          recv ()
  in
  let str j k = match J.member k j with Some (J.Str s) -> Some s | _ -> None in
  let num j k = match J.member k j with Some (J.Num f) -> Some f | _ -> None in
  let req_id j = match str j "request_id" with Some r -> r | None -> die "response without request_id" in

  send "{\"op\":\"ping\",\"id\":0}";
  send "{\"op\":\"rz\",\"id\":1,\"theta\":0.37}";
  send "{\"op\":\"rz\",\"id\":2,\"theta\":1.1}";
  send
    "{\"op\":\"batch\",\"id\":3,\"requests\":[{\"op\":\"rz\",\"theta\":0.5},{\"op\":\"rz\",\"theta\":0.37},{\"op\":\"rz\",\"theta\":0.5}]}";
  send "{\"op\":\"u3\",\"id\":6,\"theta\":0.9,\"phi\":0.4,\"lam\":-1.3}";
  (* Collect the five responses by echoed id (ping answers out of band,
     ahead of the queued synthesis work). *)
  let responses = Hashtbl.create 8 in
  for _ = 1 to 5 do
    let j = recv () in
    match num j "id" with
    | Some id -> Hashtbl.replace responses (int_of_float id) j
    | None -> die "response without id: %s" (J.to_string j)
  done;
  let resp id = try Hashtbl.find responses id with Not_found -> die "no response for id %d" id in
  List.iter
    (fun id ->
      match J.member "ok" (resp id) with
      | Some (J.Bool true) -> ()
      | _ -> die "request %d failed: %s" id (J.to_string (resp id)))
    [ 0; 1; 2; 3; 6 ];
  (* A u3 runs the engine's U3 ladder, TRASYN first. *)
  if str (resp 6) "backend" <> Some "trasyn" then
    die "u3 not answered by trasyn: %s" (J.to_string (resp 6));
  (* The request_ids of every synthesized rotation, all answered ok: the
     three singles plus the batch's per-element ids. *)
  let rotation_rids = ref [ req_id (resp 1); req_id (resp 2); req_id (resp 6) ] in
  (match J.member "results" (resp 3) with
  | Some (J.Arr rs) ->
      if List.length rs <> 3 then die "batch returned %d results" (List.length rs);
      List.iter
        (fun r ->
          (match J.member "ok" r with
          | Some (J.Bool true) -> ()
          | _ -> die "batch element failed: %s" (J.to_string r));
          rotation_rids := req_id r :: !rotation_rids)
        rs
  | _ -> die "batch response carries no results array");

  (* 2: the live health snapshot.  The worker records a request's
     latency just after emitting its response, so poll briefly until
     all 4 synthesis requests have landed in the histograms. *)
  let rec fetch_stats tries =
    send "{\"op\":\"stats\",\"id\":4}";
    let stats =
      match J.member "stats" (recv ()) with
      | Some s -> s
      | None -> die "stats response carries no stats object"
    in
    let count =
      match J.member "latency" stats with
      | Some q -> ( match num q "count" with Some f -> int_of_float f | None -> 0)
      | None -> 0
    in
    if count >= 4 || tries <= 0 then stats
    else begin
      Unix.sleepf 0.02;
      fetch_stats (tries - 1)
    end
  in
  let stats = fetch_stats 100 in
  if str stats "schema" <> Some "tgates-server-stats/v1" then
    die "stats schema: %s" (J.to_string stats);
  (match str stats "trace_id" with
  | Some t when t <> "" -> ()
  | _ -> die "stats without trace_id");
  (match num stats "uptime_s" with
  | Some u when u > 0.0 -> ()
  | _ -> die "stats without positive uptime_s");
  let command_count op =
    match J.member "commands" stats with
    | Some cmds -> ( match num cmds op with Some f -> int_of_float f | None -> 0)
    | None -> die "stats without commands object"
  in
  if
    command_count "ping" <> 1 || command_count "rz" <> 2 || command_count "u3" <> 1
    || command_count "batch" <> 1
  then
    die "per-command counters do not reconcile: %s" (J.to_string stats);
  let quant section k =
    match J.member section stats with
    | Some q -> ( match num q k with Some f -> f | None -> die "stats.%s.%s missing" section k)
    | None -> die "stats without %s quantiles" section
  in
  (* 4 completed synthesis requests (3 singles + 1 batch): every
     quantile up through p999 must be populated and ordered. *)
  if int_of_float (quant "latency" "count") < 4 then die "latency.count < 4";
  let p50 = quant "latency" "p50_s" and p999 = quant "latency" "p999_s" in
  if not (p50 > 0.0 && p999 >= p50) then die "latency quantiles not ordered: p50=%g p999=%g" p50 p999;
  ignore (quant "queue_wait" "p999_s");
  (match num stats "store_hit_rate" with
  | Some r when r >= 0.0 && r <= 1.0 -> ()
  | _ -> die "stats without store_hit_rate despite an attached store");
  (match J.member "slowest" stats with
  | Some (J.Arr (_ :: _)) -> ()
  | _ -> die "slowest-requests ring is empty");

  send "{\"op\":\"shutdown\",\"id\":5}";
  ignore (recv ());
  (try Unix.close fd with Unix.Unix_error _ -> ());
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _, Unix.WEXITED c -> die "server exited with %d" c
  | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) -> die "server killed by signal %d" s);

  (* 3: responses and ledger records reconcile one-to-one. *)
  let ledger_rids =
    read_file ledger_path |> String.split_on_char '\n'
    |> List.filter_map (fun line ->
           if String.trim line = "" then None
           else
             match J.parse line with
             | Error e -> die "ledger line is not JSON: %s" e
             | Ok j -> str j "request_id")
  in
  let sort = List.sort compare in
  if sort ledger_rids <> sort !rotation_rids then
    die "ledger request_ids %s do not reconcile with responses %s"
      (String.concat "," (sort ledger_rids))
      (String.concat "," (sort !rotation_rids));

  (* 4: the trace reassembles into per-request waterfalls.  4 top-level
     synthesis requests (batch elements fold under their batch); 60 s is
     a loose ceiling that still proves the latency gate plumbing. *)
  let out = Filename.concat dir "requests.txt" in
  let code =
    Sys.command
      (Printf.sprintf "%s requests --slowest 1 --expect-requests 4 --fail-above 60 %s > %s"
         (Filename.quote trace_cli) (Filename.quote trace_path) (Filename.quote out))
  in
  if code <> 0 then die "tgates-trace requests exited %d:\n%s" code (try read_file out with _ -> "");
  let rendered = read_file out in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    m = 0 || go 0
  in
  if not (contains rendered "server.request") then
    die "requests output carries no server.request span:\n%s" rendered;

  (* 5: the final exposition counts what was sent and answered. *)
  let exposed name =
    let prefix = name ^ " " in
    match
      List.find_opt (String.starts_with ~prefix) (String.split_on_char '\n' (read_file prom_path))
    with
    | Some l ->
        let k = String.length prefix in
        int_of_string (String.sub l k (String.length l - k))
    | None -> die "the exposition has no %s" name
    | exception Sys_error e -> die "no exposition: %s" e
  in
  List.iter
    (fun (name, want) ->
      let got = exposed name in
      if got <> want then die "exposition %s = %d, traffic says %d" name got want)
    [
      ("tgates_server_requests", !lines_sent);
      ("tgates_server_served", List.length !rotation_rids);
      ("tgates_server_requests_rz", 2);
    ];

  rm_rf dir;
  print_endline "server_smoke: OK"
