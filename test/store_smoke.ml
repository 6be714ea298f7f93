(* End-to-end durability smoke for the batch server, wired into
   @runtest: drive serve_cli from the outside through a full
   populate -> crash -> recover -> warm-serve cycle and check the
   contracts the store makes at the process boundary:

   1. A cold server synthesizes fresh words and persists them; the
      process exits 0 and the responses say "source":"fresh".
   2. A run with an injected torn append (kill -9 mid-write) still
      serves its rotation and exits 0 — graceful degradation, never a
      crash or a wrong circuit.
   3. A warm restart recovers the store (truncating the torn tail),
      serves the populated rotations bit-identically from the store
      ("source":"store"), re-synthesizes the rotation whose append was
      torn, and writes one ledger record per served rotation.
   4. SIGTERM drains in-flight work and exits 0, and the drained store
      reopens clean: a read-only open recovers every record with no
      torn tail and nothing quarantined, and serves the word the
      server answered. *)

let failf fmt = Printf.ksprintf (fun s -> prerr_endline ("store_smoke: FAIL: " ^ s); exit 1) fmt

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let lines_of s = String.split_on_char '\n' s |> List.filter (fun l -> String.trim l <> "")

(* The "word":"..." field of a response line. *)
let word_of line =
  let tag = {|"word":"|} in
  let n = String.length line and m = String.length tag in
  let rec find i = if i + m > n then None else if String.sub line i m = tag then Some (i + m) else find (i + 1) in
  match find 0 with
  | None -> None
  | Some start ->
      let e = ref start in
      while !e < n && line.[!e] <> '"' do incr e done;
      Some (String.sub line start (!e - start))

let rec rm_rf p =
  match Unix.lstat p with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      (try Unix.rmdir p with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink p with Unix.Unix_error _ -> ())

let () =
  if Array.length Sys.argv < 2 then failf "usage: store_smoke SERVE_CLI";
  let cli = Sys.argv.(1) in
  let dir = Filename.temp_file "store_smoke" "" in
  Sys.remove dir;
  let req_f = Filename.temp_file "store_smoke" ".jsonl" in
  let out_f = Filename.temp_file "store_smoke" ".out" in
  let err_f = Filename.temp_file "store_smoke" ".err" in
  let ledger_f = Filename.temp_file "store_smoke" ".ledger" in
  let cleanup () =
    rm_rf dir;
    List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ req_f; out_f; err_f; ledger_f ]
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  let write_requests reqs =
    let oc = open_out req_f in
    List.iter (fun r -> output_string oc (r ^ "\n")) reqs;
    close_out oc
  in
  let run extra =
    Unix.putenv "TGATES_FAULTS" "";
    Sys.command
      (Printf.sprintf "%s --store %s %s < %s > %s 2> %s" (Filename.quote cli) (Filename.quote dir)
         extra (Filename.quote req_f) (Filename.quote out_f) (Filename.quote err_f))
  in

  (* Pass 1: cold populate. *)
  write_requests
    [
      {|{"op":"rz","id":1,"theta":0.37,"epsilon":0.07}|};
      {|{"op":"rz","id":2,"theta":1.1,"epsilon":0.07}|};
      {|{"op":"shutdown"}|};
    ];
  let code = run "" in
  if code <> 0 then failf "cold run exited %d (stderr: %s)" code (read_file err_f);
  let cold = lines_of (read_file out_f) in
  let cold_words = List.filter_map word_of cold in
  if List.length cold_words <> 2 then
    failf "cold run served %d words, wanted 2:\n%s" (List.length cold_words) (read_file out_f);
  List.iter
    (fun l -> if word_of l <> None && not (contains l {|"source":"fresh"|}) then
        failf "cold response not fresh: %s" l)
    cold;

  (* Pass 2: torn append — the rotation is still served, exit 0. *)
  write_requests [ {|{"op":"rz","id":3,"theta":2.2,"epsilon":0.07}|}; {|{"op":"shutdown"}|} ];
  let code = run "--faults store.append=torn,seed=1" in
  if code <> 0 then failf "torn run exited %d (stderr: %s)" code (read_file err_f);
  let torn = lines_of (read_file out_f) in
  if not (List.exists (fun l -> contains l {|"ok":true|} && word_of l <> None) torn) then
    failf "torn run served nothing:\n%s" (read_file out_f);

  (* Pass 3: warm restart — recovery plus store-served bit-identity. *)
  write_requests
    [
      {|{"op":"rz","id":1,"theta":0.37,"epsilon":0.07}|};
      {|{"op":"rz","id":2,"theta":1.1,"epsilon":0.07}|};
      {|{"op":"rz","id":3,"theta":2.2,"epsilon":0.07}|};
      {|{"op":"shutdown"}|};
    ];
  let code = run (Printf.sprintf "--ledger %s" (Filename.quote ledger_f)) in
  if code <> 0 then failf "warm run exited %d (stderr: %s)" code (read_file err_f);
  let warm = lines_of (read_file out_f) in
  let warm_store_words =
    List.filter_map (fun l -> if contains l {|"source":"store"|} then word_of l else None) warm
  in
  if List.length warm_store_words <> 2 then
    failf "warm run served %d rotations from the store, wanted 2:\n%s"
      (List.length warm_store_words) (read_file out_f);
  List.iter
    (fun w -> if not (List.mem w cold_words) then failf "warm word not bit-identical: %s" w)
    warm_store_words;
  (* The torn rotation never made it to disk; it must be fresh. *)
  (match
     List.find_opt (fun l -> contains l {|"id":3|} && word_of l <> None) warm
   with
  | Some l when contains l {|"source":"fresh"|} -> ()
  | Some l -> failf "torn rotation served from the store: %s" l
  | None -> failf "torn rotation not served warm:\n%s" (read_file out_f));
  (* One ledger record per served rotation, store hits included. *)
  let ledger =
    List.filter (fun l -> contains l {|"ev":"rotation"|}) (lines_of (read_file ledger_f))
  in
  if List.length ledger <> 3 then
    failf "ledger has %d records, wanted 3:\n%s" (List.length ledger) (read_file ledger_f);
  let store_records = List.filter (fun l -> contains l {|"source":"store"|}) ledger in
  if List.length store_records <> 2 then
    failf "ledger has %d store records, wanted 2" (List.length store_records);

  (* Pass 4: SIGTERM drains and exits 0. *)
  let in_r, in_w = Unix.pipe () in
  let out_fd = Unix.openfile out_f [ Unix.O_WRONLY; Unix.O_TRUNC; Unix.O_CREAT ] 0o644 in
  let err_fd = Unix.openfile err_f [ Unix.O_WRONLY; Unix.O_TRUNC; Unix.O_CREAT ] 0o644 in
  Unix.putenv "TGATES_FAULTS" "";
  let pid = Unix.create_process cli [| cli; "--store"; dir |] in_r out_fd err_fd in
  Unix.close in_r;
  Unix.close out_fd;
  Unix.close err_fd;
  let req = {|{"op":"rz","id":9,"theta":0.5,"epsilon":0.07}|} ^ "\n" in
  ignore (Unix.write_substring in_w req 0 (String.length req));
  (* Wait for the response so SIGTERM arrives with the queue idle. *)
  let deadline = Unix.gettimeofday () +. 30.0 in
  let rec wait_response () =
    if Unix.gettimeofday () > deadline then failf "no response before SIGTERM";
    if not (List.exists (fun l -> contains l {|"id":9|}) (lines_of (read_file out_f))) then begin
      ignore (Unix.select [] [] [] 0.05);
      wait_response ()
    end
  in
  wait_response ();
  let served_word =
    match List.find_opt (fun l -> contains l {|"id":9|}) (lines_of (read_file out_f)) with
    | Some l -> (
        match word_of l with Some w -> w | None -> failf "request 9 not served: %s" l)
    | None -> failf "no response to request 9"
  in
  (* While the server lives it holds the writer lock: a second writer
     must be refused, a readonly open must ride along. *)
  (match Store.open_store dir with
  | Ok _ -> failf "second writer acquired the lock under a live server"
  | Error e when contains (String.lowercase_ascii e) "lock" -> ()
  | Error e -> failf "unexpected second-writer error: %s" e);
  (match Store.open_store ~readonly:true dir with
  | Ok ro -> Store.close ro
  | Error e -> failf "readonly open refused under a live server: %s" e);
  Unix.kill pid Sys.sigterm;
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _, Unix.WEXITED c -> failf "SIGTERM run exited %d (stderr: %s)" c (read_file err_f)
  | _ -> failf "SIGTERM run died abnormally");
  Unix.close in_w;
  if not (contains (read_file err_f) "drained") then
    failf "SIGTERM run did not report draining:\n%s" (read_file err_f);
  (* The drained store reopens clean and serves what the server
     answered: 0.37, 1.1, 2.2 and 0.5, one record each. *)
  (match Store.open_store ~readonly:true dir with
  | Error e -> failf "drained store does not reopen: %s" e
  | Ok ro ->
      let r = Store.recovery ro in
      if r.Store.records_recovered <> 4 || r.Store.torn_tails <> 0 || r.Store.records_quarantined <> 0
      then
        failf "drained store reopened with %d records, %d torn tails, %d quarantined (wanted 4, 0, 0)"
          r.Store.records_recovered r.Store.torn_tails r.Store.records_quarantined;
      (match Store.lookup ro ~epsilon:0.07 (Store.Rz 0.5) with
      | Some e when Ctgate.seq_to_string e.Store.word = served_word -> ()
      | Some e -> failf "store serves %s for request 9, the server answered %s" (Ctgate.seq_to_string e.Store.word) served_word
      | None -> failf "drained store misses request 9's rotation");
      Store.close ro);
  print_endline "store_smoke: OK (cold populate, torn append, warm restart, SIGTERM drain, clean reopen)"
