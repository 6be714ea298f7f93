(** The reproducible perf harness behind [bench/main.exe --suite perf]:
    a fixed-seed workload — single rotations through the [gridsynth]
    registry backend, random unitaries through [trasyn], small circuits
    through both pipeline workflows, and a planner phase that proves the
    deduplicating rotation planner's dedup rate and parallel speedup —
    run under a wall budget, with per-item [Obs] spans.  The result is
    one [tgates-bench/v1] JSON document (see EXPERIMENTS.md for the
    schema) written to [BENCH_<n>.json] at the current directory, the
    repo's machine-readable perf trajectory.  Diff two of them with
    [tgates-trace diff --fail-above PCT].

    Everything is deterministic given the seeds except the timings
    themselves; [smoke] shrinks the workload to a couple of seconds for
    CI. *)

module J = Obs.Json

let pi = 4.0 *. atan 1.0

type phase_acc = {
  pname : string;
  mutable items : int;  (** work items completed *)
  mutable t_count : int;  (** total T gates across completed items *)
  mutable degraded : int;  (** degraded rotations (pipeline phases) *)
  mutable truncated : bool;  (** the wall budget cut this phase short *)
}

(* Run [work] over [inputs] under [deadline], one "perf.<name>" span per
   item; each [work] returns (t_count, degraded). *)
let run_phase ~deadline name inputs work =
  let acc = { pname = name; items = 0; t_count = 0; degraded = 0; truncated = false } in
  List.iter
    (fun input ->
      if Obs.Deadline.expired deadline then acc.truncated <- true
      else begin
        let t, d = Obs.span ("perf." ^ name) (fun () -> work input) in
        acc.items <- acc.items + 1;
        acc.t_count <- acc.t_count + t;
        acc.degraded <- acc.degraded + d
      end)
    inputs;
  if acc.truncated then
    Printf.printf "  [perf] %-20s truncated by the wall budget after %d items\n%!" name acc.items;
  acc

let cval name = Obs.counter_value (Obs.counter name)

let hit_rate prefix =
  let h = cval (prefix ^ ".hit") and m = cval (prefix ^ ".miss") in
  if h + m = 0 then 0.0 else float_of_int h /. float_of_int (h + m)

let phase_json acc =
  let s = Obs.summarize (Obs.histogram ("perf." ^ acc.pname)) in
  let q v = if Float.is_finite v then v else 0.0 in
  ( acc.pname,
    J.Obj
      [
        ("items", J.Num (float_of_int acc.items));
        ("truncated", J.Bool acc.truncated);
        ("wall_s", J.Num (q s.Obs.sum));
        ("p50_s", J.Num (q s.Obs.p50));
        ("p90_s", J.Num (q s.Obs.p90));
        ("p95_s", J.Num (q s.Obs.p95));
        ("p99_s", J.Num (q s.Obs.p99));
        ("p999_s", J.Num (q s.Obs.p999));
        ("t_count", J.Num (float_of_int acc.t_count));
        ("degraded", J.Num (float_of_int acc.degraded));
      ] )

(* Recursive delete for the suite's scratch directories (store replay,
   server load). *)
let rec rm_rf p =
  match Unix.lstat p with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      (try Unix.rmdir p with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink p with Unix.Unix_error _ -> ())

(* The first unused BENCH_<n>.json slot in [dir]. *)
let next_bench_path dir =
  let n =
    Array.fold_left
      (fun best f ->
        match Filename.chop_suffix_opt ~suffix:".json" f with
        | Some base when String.length base > 6 && String.sub base 0 6 = "BENCH_" -> (
            match int_of_string_opt (String.sub base 6 (String.length base - 6)) with
            | Some i -> max best (i + 1)
            | None -> best)
        | _ -> best)
      0 (Sys.readdir dir)
  in
  Filename.concat dir (Printf.sprintf "BENCH_%d.json" n)

(* The planner phase: a synthetic rotation stream with heavy angle
   repetition, planned once and executed twice on the same plan —
   sequentially ([--jobs 1]) and then with worker domains — so the
   emitted numbers demonstrate both the dedup rate and the scheduling
   win.  This phase runs before everything else in the suite: the
   sequential pass is the cold one, absorbing every lazy one-time cost
   (above all the depth-10 MA table the pipeline phases reuse later),
   exactly the cost the planner spares a real compile from paying per
   worker.  If the warm parallel pass still loses (a loaded machine) we
   remeasure a couple of times and keep its best wall. *)
let planner_phase ~deadline ~smoke ~par_jobs =
  let n_occ = if smoke then 24 else 120 in
  let n_uniq = if smoke then 6 else 12 in
  let pl_eps = if smoke then 0.3 else 0.2 in
  let rng = Random.State.make [| 11 |] in
  let uniq = Array.init n_uniq (fun _ -> Random.State.float rng (2.0 *. pi)) in
  let occs =
    List.init n_occ (fun i ->
        let theta = uniq.(i mod n_uniq) in
        (Printf.sprintf "%.10f" theta, theta))
  in
  let plan = Planner.plan occs in
  let cfg =
    Synth.config
      ~trasyn:{ Trasyn.default_config with samples = (if smoke then 16 else 32); table_t = 10 }
      ~budgets:[ 8 ] ~epsilon:pl_eps ()
  in
  let run ~deadline theta =
    Synth.run_chain ~deadline ~config:cfg Synth.u3_chain (Synth.Rz theta)
  in
  let execute jobs =
    let t0 = Obs.Clock.elapsed_s () in
    let table = Obs.span "perf.planner" (fun () -> Planner.execute ~jobs ~deadline ~run plan) in
    (table, Obs.Clock.elapsed_s () -. t0)
  in
  let seq_table, seq_wall = execute 1 in
  let rec best_par tries best =
    let _, wall = execute par_jobs in
    let best = Float.min best wall in
    if best < seq_wall || tries <= 1 then best else best_par (tries - 1) best
  in
  let par_wall = best_par 3 infinity in
  let t_count =
    Hashtbl.fold
      (fun _ res acc ->
        match res with Ok (a : Robust.attempt) -> acc + Ctgate.t_count a.Robust.word | Error _ -> acc)
      seq_table 0
  in
  let s = Obs.summarize (Obs.histogram "perf.planner") in
  let q v = if Float.is_finite v then v else 0.0 in
  let dedup_rate = float_of_int plan.Planner.dedup_hits /. float_of_int plan.Planner.occurrences in
  Printf.printf
    "  %-20s %3d occurrences -> %d jobs (dedup %.0f%%)  jobs1=%.3fs jobs%d=%.3fs speedup=%.2fx\n%!"
    "planner" plan.Planner.occurrences
    (Array.length plan.Planner.jobs)
    (100.0 *. dedup_rate) seq_wall par_jobs par_wall (seq_wall /. par_wall);
  ( "planner",
    J.Obj
      [
        ("items", J.Num (float_of_int plan.Planner.occurrences));
        ("truncated", J.Bool (Obs.Deadline.expired deadline));
        ("wall_s", J.Num (q s.Obs.sum));
        ("p50_s", J.Num (q s.Obs.p50));
        ("p90_s", J.Num (q s.Obs.p90));
        ("p95_s", J.Num (q s.Obs.p95));
        ("p99_s", J.Num (q s.Obs.p99));
        ("p999_s", J.Num (q s.Obs.p999));
        ("t_count", J.Num (float_of_int t_count));
        ("degraded", J.Num 0.0);
        ("unique_jobs", J.Num (float_of_int (Array.length plan.Planner.jobs)));
        ("dedup_hits", J.Num (float_of_int plan.Planner.dedup_hits));
        ("dedup_rate", J.Num dedup_rate);
        ("par_jobs", J.Num (float_of_int par_jobs));
        ("jobs1_wall_s", J.Num seq_wall);
        ("jobsN_wall_s", J.Num par_wall);
        ("speedup", J.Num (seq_wall /. par_wall));
      ] )

(* The chain-reuse phase: what acquiring a ready-to-sample MPS costs
   with and without reusing a canonicalized chain, isolated from
   sampling.  Per target, "cold" builds a fresh chain (every site's
   fill, the full right-to-left sweep and the interior trees) and
   instantiates it, while "warm" grafts a fresh first site onto one
   shared canonicalized interior (the warm wall includes building that
   interior once).  Both paths must yield bit-identical MPS, proven
   here by comparing fixed-seed draws.
   End-to-end impact on synthesis shows up in the trasyn_u3 phase,
   whose escalation loop hits the chain cache; this phase pins down the
   kernel-level ratio behind that win.  The configuration mirrors the
   pipeline's regime: depth-10 table, three sites. *)
let chain_reuse_phase ~deadline ~smoke =
  let n = if smoke then 4 else 12 in
  let rng = Random.State.make [| 23 |] in
  let targets = List.init n (fun _ -> Mat2.random_unitary rng) in
  let table = Ma_table.get 10 in
  let caps = [| 6; 6; 6 |] in
  let cold_wall = ref 0.0 and warm_wall = ref 0.0 in
  let timed acc f =
    let t0 = Obs.Clock.elapsed_s () in
    let r = f () in
    acc := !acc +. (Obs.Clock.elapsed_s () -. t0);
    r
  in
  let chain = timed warm_wall (fun () -> Mps.canonical_chain table caps) in
  let identical = ref true in
  List.iter
    (fun target ->
      let cold =
        timed cold_wall (fun () ->
            Obs.span "perf.chain_reuse" (fun () ->
                Mps.instantiate ~target (Mps.canonical_chain table caps)))
      in
      let warm = timed warm_wall (fun () -> Mps.instantiate ~target chain) in
      (* Fixed-seed draws from both instances must agree bit-for-bit
         (indices, amplitudes, multiplicities). *)
      if compare (Mps.sample cold ~k:16) (Mps.sample warm ~k:16) <> 0 then identical := false)
    targets;
  let cold_wall = !cold_wall and warm_wall = !warm_wall in
  let s = Obs.summarize (Obs.histogram "perf.chain_reuse") in
  let q v = if Float.is_finite v then v else 0.0 in
  Printf.printf
    "  %-20s %3d targets  cold=%.3fs warm=%.3fs (incl. one chain build)  speedup=%.2fx%s\n%!"
    "chain_reuse" n cold_wall warm_wall
    (cold_wall /. warm_wall)
    (if !identical then "" else "  [MISMATCH]");
  ( "chain_reuse",
    J.Obj
      [
        ("items", J.Num (float_of_int n));
        ("truncated", J.Bool (Obs.Deadline.expired deadline));
        ("wall_s", J.Num (q s.Obs.sum));
        ("p50_s", J.Num (q s.Obs.p50));
        ("p90_s", J.Num (q s.Obs.p90));
        ("p95_s", J.Num (q s.Obs.p95));
        ("p99_s", J.Num (q s.Obs.p99));
        ("p999_s", J.Num (q s.Obs.p999));
        ("t_count", J.Num 0.0);
        ("degraded", J.Num 0.0);
        ("cold_wall_s", J.Num cold_wall);
        ("warm_wall_s", J.Num warm_wall);
        ("reuse_speedup", J.Num (cold_wall /. warm_wall));
        ("identical", J.Bool !identical);
      ] )

(* The traffic-replay phase: the persistent store under a repeating
   rotation stream.  A cold pass populates a fresh store (every target
   is a miss and gets written back), then the store is closed and
   reopened as a restarted server would, and the same traffic replays
   against the warm store, where every rotation should be an index hit
   served without synthesis.  Reported: walls and rotations/sec for
   both passes, per-rotation p95 on the warm pass, the store hit rate,
   and the cold vs warm open time (the warm open scans the segments
   the cold pass wrote).  All words
   served warm are checked bit-identical to the cold pass — the
   durability contract, not just a perf number. *)
let store_replay_phase ~deadline ~smoke =
  let n_occ = if smoke then 16 else 80 in
  let n_uniq = if smoke then 4 else 10 in
  let eps = if smoke then 0.3 else 0.2 in
  let rng = Random.State.make [| 31 |] in
  let uniq = Array.init n_uniq (fun _ -> Random.State.float rng (2.0 *. pi)) in
  let thetas = List.init n_occ (fun i -> uniq.(i mod n_uniq)) in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "tgates-bench-store.%d" (Unix.getpid ()))
  in
  rm_rf dir;
  let prev_store = Synth.store () in
  let cfg =
    Synth.config
      ~trasyn:{ Trasyn.default_config with samples = (if smoke then 16 else 32); table_t = 10 }
      ~budgets:[ 8 ] ~epsilon:eps ()
  in
  let open_timed () =
    let t0 = Obs.Clock.elapsed_s () in
    match Store.open_store dir with
    | Error e -> failwith ("store_replay: " ^ e)
    | Ok st -> (st, Obs.Clock.elapsed_s () -. t0)
  in
  let replay span_name =
    let words = ref [] in
    let t0 = Obs.Clock.elapsed_s () in
    List.iter
      (fun theta ->
        let r =
          Obs.span span_name (fun () ->
              Synth.run_chain_sourced ~deadline ~config:cfg Synth.u3_chain (Synth.Rz theta))
        in
        match r with
        | Ok (a, _) -> words := a.Robust.word :: !words
        | Error (f, _) -> raise (Robust.Failure_exn f))
      thetas;
    (List.rev !words, Obs.Clock.elapsed_s () -. t0)
  in
  Fun.protect
    ~finally:(fun () ->
      Synth.set_store prev_store;
      rm_rf dir)
    (fun () ->
      let st, cold_open = open_timed () in
      Synth.set_store (Some st);
      let cold_words, cold_wall = replay "perf.store_cold" in
      Store.close st;
      (* Warm restart: reopen and scan the segments, as serve_cli does.
         The hit rate is measured on this pass alone — after a restart
         every rotation should be served from the index. *)
      let st, warm_open = open_timed () in
      Synth.set_store (Some st);
      let hits0 = cval "synth.store.hit" and misses0 = cval "synth.store.miss" in
      let warm_words, warm_wall = replay "perf.store_replay" in
      let hits = cval "synth.store.hit" - hits0
      and misses = cval "synth.store.miss" - misses0 in
      let rate = if hits + misses = 0 then 0.0 else float_of_int hits /. float_of_int (hits + misses) in
      let identical = List.for_all2 (fun a b -> compare a b = 0) cold_words warm_words in
      Synth.set_store None;
      Store.close st;
      let s = Obs.summarize (Obs.histogram "perf.store_replay") in
      let q v = if Float.is_finite v then v else 0.0 in
      let rps wall = if wall > 0.0 then float_of_int n_occ /. wall else 0.0 in
      Printf.printf
        "  %-20s %3d rotations  cold=%.3fs (%.0f/s) warm=%.3fs (%.0f/s)  hit_rate=%.2f  open \
         cold=%.4fs warm=%.4fs%s\n\
         %!"
        "store_replay" n_occ cold_wall (rps cold_wall) warm_wall (rps warm_wall) rate cold_open
        warm_open
        (if identical then "" else "  [MISMATCH]");
      ( "store_replay",
        J.Obj
          [
            ("items", J.Num (float_of_int n_occ));
            ("truncated", J.Bool (Obs.Deadline.expired deadline));
            ("wall_s", J.Num (q s.Obs.sum));
            ("p50_s", J.Num (q s.Obs.p50));
            ("p90_s", J.Num (q s.Obs.p90));
            ("p95_s", J.Num (q s.Obs.p95));
            ("p99_s", J.Num (q s.Obs.p99));
            ("p999_s", J.Num (q s.Obs.p999));
            ("t_count", J.Num (float_of_int (List.fold_left (fun a w -> a + Ctgate.t_count w) 0 warm_words)));
            ("degraded", J.Num 0.0);
            ("unique_targets", J.Num (float_of_int n_uniq));
            ("cold_wall_s", J.Num cold_wall);
            ("warm_wall_s", J.Num warm_wall);
            ("cold_rps", J.Num (rps cold_wall));
            ("warm_rps", J.Num (rps warm_wall));
            ("hit_rate", J.Num rate);
            ("cold_open_s", J.Num cold_open);
            ("warm_open_s", J.Num warm_open);
            ("identical", J.Bool identical);
          ] ))

(* The server-load phase: sustained replayed rotation traffic against a
   live [serve_cli] child over a Unix-domain socket — the full
   wire-to-wire path (parse, admission queue, worker, store, response
   emission), not the in-process engine.  A windowed client keeps
   [window] requests in flight and timestamps each send/receive, so the
   reported p50/p95/p99/p999 are exact client-observed latencies (sorted
   samples, not histogram buckets).  The angle stream repeats [n_uniq]
   angles across [n_occ] requests, so after the first round the store
   serves hits and the phase measures the server's steady state; the
   final [stats] op supplies the server-side queue-wait quantiles and
   store hit rate, and a [shutdown] op drains the child cleanly. *)
let server_load_phase ~deadline ~smoke ~serve_cli =
  let n_occ = if smoke then 24 else 160 in
  let n_uniq = if smoke then 4 else 10 in
  let eps = if smoke then 0.3 else 0.2 in
  let window = 8 in
  let rng = Random.State.make [| 47 |] in
  let uniq = Array.init n_uniq (fun _ -> Random.State.float rng (2.0 *. pi)) in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "tgates-bench-serve.%d" (Unix.getpid ()))
  in
  rm_rf dir;
  Unix.mkdir dir 0o700;
  let sock_path = Filename.concat dir "serve.sock" in
  let store_dir = Filename.concat dir "store" in
  let log_path = Filename.concat dir "serve.log" in
  let log_fd = Unix.openfile log_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600 in
  let null_fd = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process serve_cli
      [|
        serve_cli; "--socket"; sock_path; "--store"; store_dir; "--epsilon";
        Printf.sprintf "%g" eps; "-j"; "2";
      |]
      null_fd Unix.stdout log_fd
  in
  Unix.close null_fd;
  Unix.close log_fd;
  let fail_with fmt =
    Printf.ksprintf
      (fun msg ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid);
        let log = try In_channel.with_open_text log_path In_channel.input_all with _ -> "" in
        rm_rf dir;
        failwith (Printf.sprintf "server_load: %s\nserver log:\n%s" msg log))
      fmt
  in
  (* The socket file appears once the child has bound it. *)
  let rec await_socket tries =
    if Sys.file_exists sock_path then ()
    else if tries <= 0 then fail_with "server did not bind %s" sock_path
    else begin
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _, st ->
          fail_with "server exited before binding its socket (%s)"
            (match st with
            | Unix.WEXITED c -> Printf.sprintf "exit %d" c
            | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
            | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s));
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
    | exception Unix.Unix_error (e, _, _) -> fail_with "connect: %s" (Unix.error_message e)
  in
  connect 100;
  let write_all line =
    let rec go off =
      if off < String.length line then
        match Unix.write_substring fd line off (String.length line - off) with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
        | n -> go (off + n)
    in
    go 0
  in
  (* One-response-line-at-a-time buffered reader. *)
  let rbuf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let pending = Queue.create () in
  let rec read_response () =
    if not (Queue.is_empty pending) then Queue.pop pending
    else
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_response ()
      | 0 -> fail_with "server closed the connection mid-traffic"
      | n ->
          for i = 0 to n - 1 do
            match Bytes.get chunk i with
            | '\n' ->
                Queue.push (Buffer.contents rbuf) pending;
                Buffer.clear rbuf
            | c -> Buffer.add_char rbuf c
          done;
          read_response ()
  in
  let parse_response line =
    match J.parse line with Ok j -> j | Error e -> fail_with "bad response %S: %s" line e
  in
  (* Windowed replay: timestamp each send, match responses back by id. *)
  let sent_at = Hashtbl.create 64 in
  let latencies = ref [] in
  let served = ref 0 and failed = ref 0 in
  let truncated = ref false in
  let t0 = Obs.Clock.elapsed_s () in
  let send i =
    let theta = uniq.(i mod n_uniq) in
    Hashtbl.replace sent_at i (Obs.Clock.elapsed_s ());
    write_all (Printf.sprintf "{\"op\":\"rz\",\"id\":%d,\"theta\":%.17g}\n" i theta)
  in
  let recv () =
    let j = parse_response (read_response ()) in
    (match J.member "id" j with
    | Some (J.Num f) -> (
        let id = int_of_float f in
        match Hashtbl.find_opt sent_at id with
        | Some t ->
            latencies := (Obs.Clock.elapsed_s () -. t) :: !latencies;
            Hashtbl.remove sent_at id
        | None -> ())
    | _ -> ());
    match J.member "ok" j with Some (J.Bool true) -> incr served | _ -> incr failed
  in
  let next = ref 0 and inflight = ref 0 in
  while !next < n_occ || !inflight > 0 do
    if Obs.Deadline.expired deadline && !next < n_occ then begin
      truncated := true;
      next := n_occ
    end
    else if !next < n_occ && !inflight < window then begin
      send !next;
      incr next;
      incr inflight
    end
    else begin
      recv ();
      decr inflight
    end
  done;
  let wall = Obs.Clock.elapsed_s () -. t0 in
  (* Server-side view: queue-wait quantiles and store hit rate from the
     live stats snapshot. *)
  write_all "{\"op\":\"stats\",\"id\":-1}\n";
  let stats =
    match J.member "stats" (parse_response (read_response ())) with
    | Some s -> s
    | None -> fail_with "stats response carried no stats object"
  in
  let stat_num path =
    let rec go j = function
      | [] -> ( match j with J.Num f -> f | _ -> 0.0)
      | k :: rest -> ( match J.member k j with Some j' -> go j' rest | None -> 0.0)
    in
    go stats path
  in
  write_all "{\"op\":\"shutdown\",\"id\":-2}\n";
  ignore (read_response ());
  (try Unix.close fd with Unix.Unix_error _ -> ());
  let _, status = Unix.waitpid [] pid in
  (match status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED c -> fail_with "server exited with %d after shutdown" c
  | Unix.WSIGNALED s | Unix.WSTOPPED s -> fail_with "server killed by signal %d" s);
  rm_rf dir;
  (* Exact quantiles over the client-observed latencies. *)
  let samples = Array.of_list !latencies in
  Array.sort compare samples;
  let quant p =
    let n = Array.length samples in
    if n = 0 then 0.0 else samples.(min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1))
  in
  let items = !served + !failed in
  let rps = if wall > 0.0 then float_of_int items /. wall else 0.0 in
  let hit_rate = stat_num [ "store_hit_rate" ] in
  Printf.printf
    "  %-20s %3d requests  wall=%.3fs (%.0f/s)  p50=%.4fs p99=%.4fs p999=%.4fs  queue_wait \
     p99=%.4fs  hit_rate=%.2f%s\n\
     %!"
    "server_load" items wall rps (quant 0.5) (quant 0.99) (quant 0.999)
    (stat_num [ "queue_wait"; "p99_s" ])
    hit_rate
    (if !failed > 0 then Printf.sprintf "  failed=%d" !failed else "");
  ( "server_load",
    J.Obj
      [
        ("items", J.Num (float_of_int items));
        ("truncated", J.Bool !truncated);
        ("wall_s", J.Num wall);
        ("p50_s", J.Num (quant 0.5));
        ("p90_s", J.Num (quant 0.9));
        ("p95_s", J.Num (quant 0.95));
        ("p99_s", J.Num (quant 0.99));
        ("p999_s", J.Num (quant 0.999));
        ("t_count", J.Num 0.0);
        ("degraded", J.Num 0.0);
        ("unique_targets", J.Num (float_of_int n_uniq));
        ("window", J.Num (float_of_int window));
        ("served", J.Num (float_of_int !served));
        ("failed", J.Num (float_of_int !failed));
        ("rps", J.Num rps);
        ("queue_wait_p50_s", J.Num (stat_num [ "queue_wait"; "p50_s" ]));
        ("queue_wait_p99_s", J.Num (stat_num [ "queue_wait"; "p99_s" ]));
        ("server_latency_p99_s", J.Num (stat_num [ "latency"; "p99_s" ]));
        ("store_hit_rate", J.Num hit_rate);
      ] )

(* The streaming-compilation phase: real compile_cli children driven
   over generated QAOA gate streams at two sizes (5x apart), measuring
   end-to-end throughput (parse → window → planner with backpressure →
   in-order QASM emission) and the process-wide peak heap each child
   reports from its [obs.heap.peak_words] gauge.  The headline
   bounded-memory claim is [peak_ratio]: with O(window + queue + depth)
   state the big run's peak must sit close to the small run's, nowhere
   near the 5x of an O(input) pipeline.  perf_smoke gates on it. *)
let stream_compile_phase ~deadline ~smoke ~compile_cli =
  let small_gates = if smoke then 1_000 else 20_000 in
  let big_gates = if smoke then 5_000 else 100_000 in
  (* Smoke runs ride inside CI gates that also measure the parent's
     sampler overhead; on small machines a --jobs 2 child would starve
     the sampler thread and trip that bound, so smoke children stay
     single-domain (bit-identity across jobs is covered by @stream). *)
  let child_jobs = if smoke then 1 else 2 in
  let n = 12 and window = 64 in
  let gen gates =
    let path = Filename.temp_file "tgates-bench-stream" ".qasm" in
    let oc = open_out path in
    ignore (Generators.write_qaoa_stream ~seed:11 ~n ~gates oc);
    close_out oc;
    path
  in
  let scan_line out fmt conv =
    let v = ref None in
    List.iter
      (fun line ->
        try Scanf.sscanf line fmt (fun x -> v := Some (conv x))
        with Scanf.Scan_failure _ | Failure _ | End_of_file -> ())
      (String.split_on_char '\n' out);
    !v
  in
  let compile gates =
    let qasm = gen gates in
    let report = Filename.temp_file "tgates-bench-stream" ".report" in
    let cmd =
      Printf.sprintf
        "%s --input %s --stream --workflow gridsynth --epsilon 0.1 --window %d --jobs %d > %s \
         2>/dev/null"
        (Filename.quote compile_cli) (Filename.quote qasm) window child_jobs (Filename.quote report)
    in
    let code = Obs.span "perf.stream_compile" (fun () -> Sys.command cmd) in
    let rep = In_channel.with_open_text report In_channel.input_all in
    Sys.remove qasm;
    Sys.remove report;
    if code <> 0 then failwith (Printf.sprintf "stream_compile: exit %d: %s" code cmd);
    let num what = function
      | Some v -> v
      | None -> failwith (Printf.sprintf "stream_compile: report has no %s line:\n%s" what rep)
    in
    let rate = num "gates/sec" (scan_line rep "gates/sec: %f" Fun.id) in
    let peak = num "peak heap" (scan_line rep "peak heap: %d words" Fun.id) in
    let t_count = ref None in
    List.iter
      (fun line ->
        try
          Scanf.sscanf line "output   : %d gates in -> %d gates out, T=%d" (fun _ _ t ->
              t_count := Some t)
        with Scanf.Scan_failure _ | Failure _ | End_of_file -> ())
      (String.split_on_char '\n' rep);
    (rate, peak, num "output" !t_count)
  in
  let _, small_peak, _ = compile small_gates in
  let rate, big_peak, t_count = compile big_gates in
  let peak_ratio = float_of_int big_peak /. float_of_int (max 1 small_peak) in
  let s = Obs.summarize (Obs.histogram "perf.stream_compile") in
  let q v = if Float.is_finite v then v else 0.0 in
  Printf.printf
    "  %-20s %d gates  %.0f gates/s  peak=%dw (vs %dw at %d gates; ratio %.2f)\n%!"
    "stream_compile" big_gates rate big_peak small_peak small_gates peak_ratio;
  ( "stream_compile",
    J.Obj
      [
        ("items", J.Num (float_of_int (small_gates + big_gates)));
        ("truncated", J.Bool (Obs.Deadline.expired deadline));
        ("wall_s", J.Num (q s.Obs.sum));
        ("p50_s", J.Num (q s.Obs.p50));
        ("p90_s", J.Num (q s.Obs.p90));
        ("p95_s", J.Num (q s.Obs.p95));
        ("p99_s", J.Num (q s.Obs.p99));
        ("p999_s", J.Num (q s.Obs.p999));
        ("t_count", J.Num (float_of_int t_count));
        ("degraded", J.Num 0.0);
        ("gates", J.Num (float_of_int big_gates));
        ("window", J.Num (float_of_int window));
        ("gates_per_s", J.Num rate);
        ("peak_heap_words", J.Num (float_of_int big_peak));
        ("small_gates", J.Num (float_of_int small_gates));
        ("small_peak_heap_words", J.Num (float_of_int small_peak));
        ("peak_ratio", J.Num peak_ratio);
      ] )

let run ?out ?jobs ?metrics_out ?serve_cli ?compile_cli ~budget ~smoke () =
  Util.header (Printf.sprintf "PERF SUITE (budget %gs%s)" budget (if smoke then ", smoke" else ""));
  let was_enabled = Obs.enabled () in
  Obs.reset ();
  Obs.set_enabled true;
  Pipeline.clear_caches ();
  (* The live sampler rides along when asked, so the bench doc can carry
     its own overhead figure.  Smoke runs sample a little faster to
     catch several snapshots inside a couple of seconds, but not so
     fast that tick cost (a registry walk is ~1ms) eats into the ≤2%
     overhead budget the perf gate holds the sampler to. *)
  (match metrics_out with
  | None -> ()
  | Some p -> Metrics.start ~interval:(if smoke then 0.2 else 0.25) ~stream:p ());
  let deadline = Obs.Deadline.after budget in
  let g0 = Gc.quick_stat () in
  let t_start = Obs.Clock.elapsed_s () in

  (* Fixed-seed workload. *)
  let n_rz = if smoke then 6 else 40 in
  let rz_eps = if smoke then 1e-2 else 1e-3 in
  let rng_rz = Random.State.make [| 42 |] in
  let angles = List.init n_rz (fun _ -> Random.State.float rng_rz (2.0 *. pi)) in

  let n_u3 = if smoke then 3 else 12 in
  let rng_u3 = Random.State.make [| 7 |] in
  let targets = List.init n_u3 (fun _ -> Mat2.random_unitary rng_u3) in
  let config = { Trasyn.default_config with samples = (if smoke then 128 else 512) } in
  let budgets = if smoke then [ 6 ] else [ 8; 8 ] in

  let circuits =
    if smoke then [ Generators.qft 3 ]
    else
      [
        Generators.qft 4;
        Generators.tfim_evolution ~seed:2 ~n:4 ~steps:1;
        Generators.qaoa ~seed:3 ~n:6 ~depth:1;
      ]
  in
  let pipeline_eps = 0.07 in

  (* The planner phase goes first: its sequential pass must be the one
     that finds every lazy table cold. *)
  let par_jobs = match jobs with Some n when n > 1 -> n | _ -> 4 in
  let planner = planner_phase ~deadline ~smoke ~par_jobs in

  let synth_t tool target cfg =
    let module B = (val Synth.find_exn tool) in
    match B.synthesize target cfg with
    | Ok (seq, _) -> (Ctgate.t_count seq, 0)
    | Error f -> raise (Robust.Failure_exn f)
  in
  let gs =
    run_phase ~deadline "gridsynth_rz" angles (fun theta ->
        synth_t "gridsynth" (Synth.Rz theta) (Synth.config ~deadline ~epsilon:rz_eps ()))
  in
  let tr =
    run_phase ~deadline "trasyn_u3" targets (fun target ->
        synth_t "trasyn" (Synth.Unitary target)
          (Synth.config ~deadline ~trasyn:config ~budgets ~epsilon:0.0 ()))
  in
  let run_pipeline runner c =
    match runner c with
    | Ok (s : Pipeline.synthesized) ->
        (Circuit.t_count s.Pipeline.circuit, List.length s.Pipeline.degraded)
    | Error f -> raise (Robust.Failure_exn f)
  in
  let chain_reuse = chain_reuse_phase ~deadline ~smoke in
  let store_replay = store_replay_phase ~deadline ~smoke in
  (* The server child is found next to this binary unless overridden. *)
  let serve_exe =
    match serve_cli with
    | Some p -> Some p
    | None ->
        let guess =
          Filename.concat (Filename.dirname Sys.executable_name) "../bin/serve_cli.exe"
        in
        if Sys.file_exists guess then Some guess else None
  in
  let server_load =
    match serve_exe with
    | Some exe when Sys.file_exists exe ->
        Some (server_load_phase ~deadline ~smoke ~serve_cli:exe)
    | _ ->
        Printf.printf "  [perf] server_load skipped (serve_cli.exe not found; pass --serve-cli)\n%!";
        None
  in
  let compile_exe =
    match compile_cli with
    | Some p -> Some p
    | None ->
        let guess =
          Filename.concat (Filename.dirname Sys.executable_name) "../bin/compile_cli.exe"
        in
        if Sys.file_exists guess then Some guess else None
  in
  let stream_compile =
    match compile_exe with
    | Some exe when Sys.file_exists exe -> Some (stream_compile_phase ~deadline ~smoke ~compile_cli:exe)
    | _ ->
        Printf.printf
          "  [perf] stream_compile skipped (compile_cli.exe not found; pass --compile-cli)\n%!";
        None
  in
  let pipeline ir =
    Stream_compile.config ~epsilon:pipeline_eps ~ir ~trasyn:config ~deadline
      ~jobs:(Option.value jobs ~default:(Domain.recommended_domain_count ()))
      ()
  in
  let pt =
    run_phase ~deadline "pipeline_trasyn" circuits
      (run_pipeline (Pipeline.run (pipeline Settings.U3_ir)))
  in
  let pg =
    run_phase ~deadline "pipeline_gridsynth" circuits
      (run_pipeline (Pipeline.run (pipeline Settings.Rz_ir)))
  in
  let wall = Obs.Clock.elapsed_s () -. t_start in
  let g1 = Gc.quick_stat () in
  (* Final tick + join before we read the sampler's own counters. *)
  let metrics_section =
    match metrics_out with
    | None -> []
    | Some p ->
        Metrics.stop ();
        let sampler_wall = Obs.gauge_value (Obs.gauge "obs.metrics.sampler_wall_s") in
        [
          ( "metrics",
            J.Obj
              [
                ("stream", J.Str p);
                ("snapshots", J.Num (float_of_int (cval "obs.metrics.snapshots")));
                ("sampler_wall_s", J.Num sampler_wall);
                ("overhead_pct", J.Num (if wall > 0.0 then 100.0 *. sampler_wall /. wall else 0.0));
              ] );
        ]
  in
  let phases = [ gs; tr; pt; pg ] in
  let doc =
    J.Obj
      ([
        ("schema", J.Str Trace_analysis.bench_schema);
        ( "meta",
          J.Obj
            [
              ("suite", J.Str "perf");
              ("smoke", J.Bool smoke);
              ("budget_s", J.Num budget);
              ("rz_epsilon", J.Num rz_eps);
              ("pipeline_epsilon", J.Num pipeline_eps);
              ("trasyn_samples", J.Num (float_of_int config.Trasyn.samples));
              ("truncated", J.Bool (List.exists (fun a -> a.truncated) phases));
            ] );
        ("wall_s", J.Num wall);
        ( "phases",
          J.Obj
            (List.map phase_json phases
            @ [ chain_reuse; planner; store_replay ]
            @ Option.to_list server_load
            @ Option.to_list stream_compile) );
        ( "cache",
          J.Obj
            [
              ("gridsynth_hit_rate", J.Num (hit_rate "pipeline.gridsynth_cache"));
              ("trasyn_hit_rate", J.Num (hit_rate "pipeline.trasyn_cache"));
              ("evictions", J.Num (float_of_int (cval "pipeline.cache.evictions")));
              ("chain_hit_rate", J.Num (hit_rate "mps.chain_cache"));
              ("chain_evictions", J.Num (float_of_int (cval "mps.chain_cache.evictions")));
            ] );
        ( "gc",
          J.Obj
            [
              ("minor_words", J.Num (g1.Gc.minor_words -. g0.Gc.minor_words));
              ("major_words", J.Num (g1.Gc.major_words -. g0.Gc.major_words));
              ("promoted_words", J.Num (g1.Gc.promoted_words -. g0.Gc.promoted_words));
              ("minor_collections", J.Num (float_of_int (g1.Gc.minor_collections - g0.Gc.minor_collections)));
              ("major_collections", J.Num (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections)));
              ("heap_words_peak", J.Num (Obs.gauge_value (Obs.gauge "obs.heap.peak_words")));
            ] );
        ("degraded_rotations", J.Num (float_of_int (cval "pipeline.rotation.degraded")));
      ]
      @ metrics_section)
  in
  let path = match out with Some p -> p | None -> next_bench_path "." in
  let oc = open_out path in
  output_string oc (J.pretty doc);
  output_char oc '\n';
  close_out oc;
  List.iter
    (fun a ->
      let s = Obs.summarize (Obs.histogram ("perf." ^ a.pname)) in
      Printf.printf "  %-20s %3d items  wall=%6.2fs  p50=%s p99=%s  T=%d%s\n" a.pname a.items
        s.Obs.sum
        (Printf.sprintf "%.3gs" s.Obs.p50)
        (Printf.sprintf "%.3gs" s.Obs.p99)
        a.t_count
        (if a.degraded > 0 then Printf.sprintf "  degraded=%d" a.degraded else ""))
    phases;
  Printf.printf "  wall %.2fs; wrote %s\n%!" wall path;
  if not was_enabled && not (Obs.tracing ()) then Obs.set_enabled false
