(* Tests for the synthesis backends, the chain runner and the
   deduplicating multicore rotation planner: adapter round-trips for all
   four engines, the chain runner against its reference, ledger record
   rules, chain parsing, fault injection through parsed chains, planner
   dedup/execution semantics, the canonical-angle memo keying, and
   --jobs determinism end to end. *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let with_obs f =
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled was) f

let counter_delta name f =
  let c = Obs.counter name in
  let v0 = Obs.counter_value c in
  let r = f () in
  (r, Obs.counter_value c - v0)

let fault ?(prob = 1.0) backend mode = { Robust.Fault.backend; mode; prob }
let u3_target = Mat2.u3 0.4 1.1 (-0.7)

(* A known-good (word, claimed distance) pair for Rz(0.61) at 1e-2. *)
let good_rz () =
  let r = Gridsynth.rz ~theta:0.61 ~epsilon:1e-2 () in
  (r.Gridsynth.seq, r.Gridsynth.distance)

(* Stub backends for the runner oracle: an honest word for Rz(0.61) at
   1e-2, the same word with a claim 0.3 off, and a structured error. *)
let stub name synthesize = { Synth.name; supports_gate_set = (fun _ -> true); synthesize }

let stubs =
  lazy
    (let word, d = good_rz () in
     [
       ("good", stub "good" (fun _ _ -> Ok (word, d)));
       ("liar", stub "liar" (fun _ _ -> Ok (word, d +. 0.3)));
       ("broken", stub "broken" (fun _ _ -> Error (Robust.Backend_error "broken: down")));
     ])

(* One oracle case: a chain (stub rungs at ε 1e-2 on Rz(0.61), or a
   standard ladder on a few Rz/U3 targets at ε 0.1), a fault spec list
   and its seed, and whether the deadline has already expired. *)
type chain_case = {
  ladder : [ `Stubs of string list | `Rz of float | `U3 of float * float * float ];
  faults : (string * string * float) list;  (* rung, action, probability *)
  fault_seed : int;
  expired : bool;
}

let faults_string c =
  String.concat "," (List.map (fun (b, a, p) -> Printf.sprintf "%s=%s@%g" b a p) c.faults)

let print_chain_case c =
  Printf.sprintf "%s faults=[%s] seed=%d expired=%b"
    (match c.ladder with
    | `Stubs names -> "stubs " ^ String.concat "," names
    | `Rz t -> Printf.sprintf "rz_chain rz(%g)" t
    | `U3 (t, p, l) -> Printf.sprintf "u3_chain u3(%g,%g,%g)" t p l)
    (faults_string c) c.fault_seed c.expired

let gen_chain_case =
  let open QCheck2.Gen in
  let ladder =
    frequency
      [
        (3, map (fun l -> `Stubs l) (list_size (int_range 0 4) (oneofl [ "good"; "liar"; "broken" ])));
        (1, map (fun t -> `Rz t) (oneofl [ 0.61; -1.3; 2.9 ]));
        (1, map (fun u -> `U3 u) (oneofl [ (0.4, 1.1, -0.7); (1.9, -0.3, 0.8) ]));
      ]
  in
  let spec =
    triple
      (oneofl [ "*"; "good"; "liar"; "broken"; "gridsynth"; "gridsynth.retry"; "trasyn"; "sk" ])
      (oneofl [ "fail"; "corrupt"; "stall:0" ])
      (oneofl [ 0.25; 0.5; 1.0 ])
  in
  map
    (fun (ladder, faults, fault_seed, expired) -> { ladder; faults; fault_seed; expired })
    (quad ladder (list_size (int_range 0 2) spec) (int_bound 1000) bool)

(* Both runners see the same chain, config, deadline and fault draws
   (each under a fresh [with_faults]); they must return the same
   attempt or failure and move the same counters. *)
let check_chain_case c =
  let config, chain, target =
    match c.ladder with
    | `Stubs names ->
        ( Synth.config ~epsilon:1e-2 (),
          List.map (fun n -> Synth.rung (List.assoc n (Lazy.force stubs))) names,
          Synth.Rz 0.61 )
    | `Rz t -> (Synth.config ~epsilon:0.1 (), Synth.rz_chain (), Synth.Rz t)
    | `U3 (t, p, l) ->
        ( Synth.config
            ~trasyn:{ Trasyn.default_config with samples = 64; table_t = 6 }
            ~budgets:[ 6; 6 ] ~epsilon:0.1 (),
          Synth.u3_chain,
          Synth.Unitary (Mat2.u3 t p l) )
  in
  let specs =
    match Robust.Fault.parse (faults_string c) with
    | Ok (_, specs) -> specs
    | Error e -> failwith e
  in
  let counters =
    [ "robust.retries"; "robust.faults.injected"; "robust.deadline.expired"; "robust.chain.failed";
      "robust.guard.checked"; "robust.guard.rejected"; "synth.rotations" ]
    @ List.map (fun s -> "robust.fallback." ^ s.Synth.rung_name) chain
  in
  let run runner =
    let deadline = if c.expired then Obs.Deadline.at 0.0 else Obs.Deadline.none in
    let before = List.map (fun n -> Obs.counter_value (Obs.counter n)) counters in
    let r = Robust.Fault.with_faults ~seed:c.fault_seed specs (fun () -> runner ~deadline) in
    (r, List.map2 (fun n v0 -> (n, Obs.counter_value (Obs.counter n) - v0)) counters before)
  in
  with_obs @@ fun () ->
  run (fun ~deadline -> Synth.run_chain ~deadline ~config chain target)
  = run (fun ~deadline -> Chain_reference.run_chain ~deadline ~config chain target)

(* The adapter's claimed distance must match the word it returned — the
   registry's contract is (word, honest distance), independently of the
   run_chain guard re-checking it. *)
let check_roundtrip ~target ~slack (seq, claimed) =
  let actual = Mat2.distance (Ctgate.seq_to_mat2 seq) target in
  Alcotest.(check bool)
    (Printf.sprintf "claimed %.3e vs actual %.3e" claimed actual)
    true
    (Float.abs (actual -. claimed) <= slack)

let registry_tests =
  [
    Alcotest.test_case "the four built-ins are registered in order" `Quick (fun () ->
        let names = List.map (fun b -> b.Synth.name) (Synth.all ()) in
        List.iter
          (fun n -> Alcotest.(check bool) n true (List.mem n names))
          [ "trasyn"; "gridsynth"; "synthetiq"; "sk" ]);
    Alcotest.test_case "find and find_exn agree" `Quick (fun () ->
        (match Synth.find "gridsynth" with
        | Some b -> Alcotest.(check string) "name" "gridsynth" b.Synth.name
        | None -> Alcotest.fail "gridsynth must be registered");
        Alcotest.(check bool) "unknown" true (Synth.find "bogus" = None);
        match Synth.find_exn "bogus" with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "find_exn must raise on an unknown name");
    (* At indices 2 and 3, so the tests after them keep their indices. *)
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:200 ~name:"the chain runner matches the reference runner"
         ~print:print_chain_case gen_chain_case check_chain_case);
    Alcotest.test_case "ledger records follow one set of field rules" `Quick (fun () ->
        let config = Synth.config ~epsilon:0.1 () in
        let chain = Synth.rz_chain () in
        let target = Synth.Rz 0.61 in
        let word = fst (good_rz ()) in
        let attempt fallbacks distance =
          Ok { Robust.word; distance; backend = "gridsynth"; fallbacks; rung_epsilon = 0.1 }
        in
        let r = Synth.ledger_record ~config chain target ~source:`Fresh ~wall_s:0.5 (attempt 0 0.05) in
        Alcotest.(check string) "target" "rz(0.6100000000)" r.Ledger.target;
        Alcotest.(check string) "chain" (Synth.chain_id chain) r.Ledger.chain;
        Alcotest.(check string) "gate set" "cliffordt" r.Ledger.gate_set;
        Alcotest.(check int) "attempts" 1 r.Ledger.attempts;
        Alcotest.(check int) "t count" (Ctgate.t_count word) r.Ledger.t_count;
        Alcotest.(check bool) "fresh, within epsilon" true
          (r.Ledger.ok && (not r.Ledger.cached) && (not r.Ledger.degraded) && r.Ledger.source = "fresh");
        let r = Synth.ledger_record ~config chain target ~source:`Store ~wall_s:0.0 (attempt 0 0.05) in
        Alcotest.(check bool) "a store hit ran no rung" true
          (r.Ledger.cached && r.Ledger.source = "store" && r.Ledger.attempts = 0);
        let r =
          Synth.ledger_record ~request_id:"r1.2" ~config chain target ~source:`Replay ~wall_s:0.0
            (attempt 2 0.2)
        in
        Alcotest.(check bool) "a replay after fallbacks is degraded" true
          (r.Ledger.cached && r.Ledger.source = "replay" && r.Ledger.degraded
         && r.Ledger.attempts = 3 && r.Ledger.request_id = "r1.2");
        let best_effort =
          Synth.ledger_record ~config:(Synth.config ~epsilon:0.0 ()) chain target ~source:`Fresh
            ~wall_s:0.0 (attempt 0 0.2)
        in
        Alcotest.(check bool) "best effort is never above its epsilon" false
          best_effort.Ledger.degraded;
        let failure ran =
          Synth.ledger_record ~config chain target ~source:`Fresh ~wall_s:0.0
            (Error (Robust.Timeout, ran))
        in
        let r = failure 2 in
        Alcotest.(check bool) "a failure has no rung epsilon or distance" true
          (Float.is_nan r.Ledger.rung_eps && Float.is_nan r.Ledger.distance);
        Alcotest.(check bool) "a failure counts the rungs it ran" true
          ((not r.Ledger.ok) && r.Ledger.degraded && r.Ledger.backend = "failed"
          && r.Ledger.attempts = 2 && r.Ledger.fallbacks = 1
          && r.Ledger.failure = Some "timeout");
        let r = failure 0 in
        Alcotest.(check (pair int int)) "a failure that ran no rung" (0, 0)
          (r.Ledger.attempts, r.Ledger.fallbacks));
  ]

let adapter_tests =
  [
    Alcotest.test_case "trasyn round-trips a U3 target" `Quick (fun () ->
        let cfg =
          Synth.config
            ~trasyn:{ Trasyn.default_config with samples = 128; table_t = 6 }
            ~budgets:[ 6 ] ~epsilon:0.0 ()
        in
        match (Synth.find_exn "trasyn").synthesize (Synth.Unitary u3_target) cfg with
        | Ok r -> check_roundtrip ~target:u3_target ~slack:1e-6 r
        | Error f -> Alcotest.fail (Robust.failure_to_string f));
    Alcotest.test_case "gridsynth round-trips an Rz target" `Quick (fun () ->
        match
          (Synth.find_exn "gridsynth").synthesize (Synth.Rz 0.61)
            (Synth.config ~epsilon:1e-2 ())
        with
        | Ok ((_, d) as r) ->
            Alcotest.(check bool) "meets epsilon" true (d <= 1e-2);
            check_roundtrip ~target:(Mat2.rz 0.61) ~slack:1e-6 r
        | Error f -> Alcotest.fail (Robust.failure_to_string f));
    Alcotest.test_case "gridsynth serves a Unitary target via Eq. (1)" `Quick (fun () ->
        match
          (Synth.find_exn "gridsynth").synthesize (Synth.Unitary u3_target)
            (Synth.config ~epsilon:0.1 ())
        with
        | Ok ((_, d) as r) ->
            Alcotest.(check bool) "meets epsilon" true (d <= 0.1);
            check_roundtrip ~target:u3_target ~slack:1e-6 r
        | Error f -> Alcotest.fail (Robust.failure_to_string f));
    Alcotest.test_case "synthetiq round-trips at a loose threshold" `Quick (fun () ->
        let cfg = { (Synth.config ~epsilon:0.3 ()) with Synth.synthetiq_seconds = 5.0 } in
        match (Synth.find_exn "synthetiq").synthesize (Synth.Unitary u3_target) cfg with
        | Ok r -> check_roundtrip ~target:u3_target ~slack:1e-6 r
        | Error f -> Alcotest.fail (Robust.failure_to_string f));
    Alcotest.test_case "sk round-trips a U3 target" `Quick (fun () ->
        match
          (Synth.find_exn "sk").synthesize (Synth.Unitary u3_target)
            (Synth.config ~epsilon:0.45 ())
        with
        | Ok ((_, d) as r) ->
            Alcotest.(check bool) "under the SK floor" true (d <= 0.45);
            check_roundtrip ~target:u3_target ~slack:1e-6 r
        | Error f -> Alcotest.fail (Robust.failure_to_string f));
  ]

let chain_tests =
  [
    Alcotest.test_case "parse_chain builds rungs in order" `Quick (fun () ->
        match Synth.parse_chain "trasyn, gridsynth,sk" with
        | Ok rungs ->
            Alcotest.(check string) "chain id" "trasyn,gridsynth,sk" (Synth.chain_id rungs);
            let sk = List.nth rungs 2 in
            Alcotest.(check bool) "sk keeps its floor" true (sk.Synth.eps_floor = 0.45)
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "parse_chain names the unknown backend" `Quick (fun () ->
        (match Synth.parse_chain "gridsynth,warp" with
        | Error e -> Alcotest.(check bool) "names it" true (contains e "warp")
        | Ok _ -> Alcotest.fail "warp is not a backend");
        match Synth.parse_chain "" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "an empty chain is an error");
    Alcotest.test_case "a fault falls through a registry-built chain" `Quick (fun () ->
        let chain =
          match Synth.parse_chain "gridsynth,sk" with Ok c -> c | Error e -> Alcotest.fail e
        in
        Robust.Fault.with_faults [ fault "gridsynth" Robust.Fault.Fail ] (fun () ->
            match
              Synth.run_chain ~config:(Synth.config ~epsilon:1e-2 ()) chain (Synth.Rz 0.61)
            with
            | Ok a ->
                Alcotest.(check string) "sk rescued it" "sk" a.Robust.backend;
                Alcotest.(check int) "one dead rung" 1 a.Robust.fallbacks
            | Error f -> Alcotest.fail (Robust.failure_to_string f)));
  ]

let planner_tests =
  [
    Alcotest.test_case "plan dedupes on key, first appearance wins" `Quick (fun () ->
        let p = Planner.plan [ ("a", 1); ("b", 2); ("a", 3); ("b", 4); ("a", 5) ] in
        Alcotest.(check int) "occurrences" 5 p.Planner.occurrences;
        Alcotest.(check int) "dedup hits" 3 p.Planner.dedup_hits;
        Alcotest.(check (list string)) "job order" [ "a"; "b" ]
          (Array.to_list (Array.map (fun j -> j.Planner.key) p.Planner.jobs));
        Alcotest.(check (list int)) "first target wins" [ 1; 2 ]
          (Array.to_list (Array.map (fun j -> j.Planner.target) p.Planner.jobs)));
    Alcotest.test_case "execute collects results under any domain count" `Quick (fun () ->
        let p = Planner.plan (List.init 9 (fun i -> (string_of_int (i mod 3), i mod 3))) in
        List.iter
          (fun jobs ->
            let t = Planner.execute ~jobs ~run:(fun ~deadline:_ x -> Ok (x * 10)) p in
            Alcotest.(check int) "table size" 3 (Hashtbl.length t);
            List.iter
              (fun k ->
                match Hashtbl.find_opt t (string_of_int k) with
                | Some (Ok v) -> Alcotest.(check int) "value" (k * 10) v
                | _ -> Alcotest.fail "missing result")
              [ 0; 1; 2 ])
          [ 1; 4 ]);
    Alcotest.test_case "a raising job fails alone, not the plan" `Quick (fun () ->
        let p = Planner.plan [ ("bad", 0); ("ok", 1) ] in
        let t =
          Planner.execute ~jobs:2
            ~run:(fun ~deadline:_ x -> if x = 0 then failwith "kaboom" else Ok x)
            p
        in
        (match Hashtbl.find_opt t "bad" with
        | Some (Error (Robust.Backend_error msg)) ->
            Alcotest.(check bool) "cause kept" true (contains msg "kaboom")
        | _ -> Alcotest.fail "the raising job must store a Backend_error");
        match Hashtbl.find_opt t "ok" with
        | Some (Ok 1) -> ()
        | _ -> Alcotest.fail "the healthy job must still land");
    Alcotest.test_case "planner counters account for the work" `Quick (fun () ->
        with_obs @@ fun () ->
        let p = Planner.plan (List.init 8 (fun i -> (string_of_int (i mod 2), i))) in
        let _, jobs =
          counter_delta "obs.planner.jobs" (fun () ->
              Planner.execute ~jobs:1 ~run:(fun ~deadline:_ _ -> Ok ()) p)
        in
        Alcotest.(check int) "unique jobs" 2 jobs;
        let _, hits =
          counter_delta "obs.planner.dedup_hits" (fun () ->
              Planner.execute ~jobs:1 ~run:(fun ~deadline:_ _ -> Ok ()) p)
        in
        Alcotest.(check int) "dedup hits" 6 hits);
  ]

(* A pool at jobs 2 whose one worker is stuck in a job: every other job
   stays queued until the caller runs it or [release ()] lets the worker
   go (the worker also gives up after 2 s, so a caller that never runs
   queued jobs fails the test instead of hanging it).  [b] is the task
   queued behind the stuck one; [run_here k] is true when job [k] ran
   on the calling domain. *)
let with_stuck_worker f =
  let caller = Domain.self () in
  let ran_on = Hashtbl.create 8 and ran_lock = Mutex.create () in
  let record k =
    Mutex.lock ran_lock;
    Hashtbl.replace ran_on k (Domain.self ());
    Mutex.unlock ran_lock
  in
  let run_here k =
    Mutex.lock ran_lock;
    let d = Hashtbl.find_opt ran_on k in
    Mutex.unlock ran_lock;
    d = Some caller
  in
  let gate = Atomic.make false and started = Atomic.make false in
  let pool = Planner.create ~jobs:2 () in
  let job k () =
    record k;
    Ok k
  in
  let t0 = Unix.gettimeofday () in
  let stuck () =
    Atomic.set started true;
    while (not (Atomic.get gate)) && Unix.gettimeofday () -. t0 < 2.0 do
      Unix.sleepf 0.001
    done;
    Ok "stuck"
  in
  Fun.protect ~finally:(fun () ->
      Atomic.set gate true;
      Planner.finish pool)
  @@ fun () ->
  ignore (Planner.submit pool stuck);
  (* The second job starts the worker, which takes the stuck job first. *)
  let b = Planner.submit pool (job "b") in
  while not (Atomic.get started) do
    Unix.sleepf 0.001
  done;
  f pool ~b ~job ~run_here ~release:(fun () -> Atomic.set gate true)

let await pool task =
  while Option.is_none (Planner.result pool task) do
    Planner.help pool task
  done

let pool_tests =
  [
    Alcotest.test_case "pool at jobs 1 runs jobs inline and starts no domain" `Quick (fun () ->
        let caller = Domain.self () in
        let (), domains =
          counter_delta "obs.planner.domains" (fun () ->
              let pool = Planner.create ~jobs:1 () in
              let tasks =
                List.map
                  (fun k -> (k, Planner.submit pool (fun () -> Ok (Domain.self ()))))
                  [ "a"; "b"; "c" ]
              in
              List.iter
                (fun (k, task) ->
                  match Planner.result pool task with
                  | Some (Ok d) -> Alcotest.(check bool) (k ^ " ran on the caller") true (d = caller)
                  | _ -> Alcotest.failf "%s has no result" k)
                tasks;
              Planner.finish pool)
        in
        Alcotest.(check int) "the caller only" 1 domains);
    Alcotest.test_case "pool at jobs 3 with 5 jobs runs on 3 domains" `Quick (fun () ->
        let (), domains =
          counter_delta "obs.planner.domains" (fun () ->
              let pool = Planner.create ~jobs:3 () in
              let tasks = List.init 5 (fun k -> Planner.submit pool (fun () -> Ok k)) in
              List.iter (await pool) tasks;
              Planner.finish pool)
        in
        Alcotest.(check int) "the caller and 2 workers" 3 domains);
    Alcotest.test_case "submissions behind a stuck worker queue without running" `Quick (fun () ->
        let keys = List.init 64 (Printf.sprintf "c%d") in
        let at_jobs_1 =
          let pool = Planner.create ~jobs:1 () in
          let tasks = List.map (fun k -> Planner.submit pool (fun () -> Ok k)) keys in
          Planner.finish pool;
          List.map (Planner.result pool) tasks
        in
        let depth () = Obs.gauge_value (Obs.gauge "obs.planner.queue_depth") in
        with_stuck_worker (fun pool ~b ~job ~run_here ~release ->
            let tasks = List.map (fun k -> Planner.submit pool (job k)) keys in
            Alcotest.(check bool) "none ran" true
              (List.for_all (fun t -> Planner.result pool t = None) tasks);
            Alcotest.(check bool) "none on the caller" false (List.exists run_here keys);
            Alcotest.(check (float 0.0)) "b and the 64 queued" 65.0 (depth ());
            Planner.help pool b;
            Alcotest.(check bool) "help ran the oldest, b, on the caller" true (run_here "b");
            Alcotest.(check bool) "b landed" true (Planner.result pool b = Some (Ok "b"));
            Alcotest.(check (float 0.0)) "the 64 still queued" 64.0 (depth ());
            release ();
            List.iter (await pool) tasks;
            Alcotest.(check bool) "the results jobs 1 gives" true
              (List.map (Planner.result pool) tasks = at_jobs_1)));
    Alcotest.test_case "help runs a queued job on the caller" `Quick (fun () ->
        with_stuck_worker (fun pool ~b ~job:_ ~run_here ~release:_ ->
            Planner.help pool b;
            Alcotest.(check bool) "b ran on the caller" true (run_here "b");
            Alcotest.(check bool) "b landed" true (Planner.result pool b = Some (Ok "b"))));
    Alcotest.test_case "a job runs under its request context on a worker" `Quick (fun () ->
        let ctx i = { Obs.trace_id = "t"; request_id = "r" ^ string_of_int i; batch_index = i } in
        let caller = Domain.self () in
        let pool = Planner.create ~jobs:2 () in
        Fun.protect ~finally:(fun () -> Planner.finish pool) @@ fun () ->
        Obs.with_request None (fun () ->
            let tasks =
              List.map
                (fun i ->
                  ( i,
                    Planner.submit pool ~ctx:(ctx i) (fun () ->
                        Ok (Obs.current_request (), Domain.self ())) ))
                [ 0; 1 ]
            in
            (* Wait without helping, so the worker runs both jobs. *)
            List.iter
              (fun (i, task) ->
                let rec wait () =
                  match Planner.result pool task with
                  | Some (Ok (c, d)) ->
                      Alcotest.(check bool) "on the worker" true (d <> caller);
                      Alcotest.(check bool) "its own context" true (c = Some (ctx i))
                  | Some (Error f) -> Alcotest.fail (Robust.failure_to_string f)
                  | None ->
                      Unix.sleepf 0.001;
                      wait ()
                in
                wait ())
              tasks;
            Alcotest.(check bool) "caller's context untouched" true (Obs.current_request () = None)));
    Alcotest.test_case "a job without a context keeps the caller's, inline" `Quick (fun () ->
        let ambient = { Obs.trace_id = "t"; request_id = "r9"; batch_index = -1 } in
        let pool = Planner.create ~jobs:1 () in
        let task =
          Obs.with_request (Some ambient) (fun () ->
              Planner.submit pool (fun () -> Ok (Obs.current_request ())))
        in
        Planner.finish pool;
        Alcotest.(check bool) "saw the ambient context" true
          (Planner.result pool task = Some (Ok (Some ambient))));
    Alcotest.test_case "help refuses a task of another pool" `Quick (fun () ->
        (* One job at jobs 2 starts no worker, so it waits in its own
           pool's queue; the other pool has nothing to run or wait on. *)
        let mine = Planner.create ~jobs:2 () and other = Planner.create ~jobs:2 () in
        let task = Planner.submit mine (fun () -> Ok 1) in
        Alcotest.check_raises "help on another pool's task"
          (Invalid_argument "Planner.help: the task was not submitted to this pool") (fun () ->
            Planner.help other task);
        await mine task;
        Alcotest.(check bool) "its own pool runs it" true (Planner.result mine task = Some (Ok 1));
        Planner.finish mine;
        Planner.finish other);
    Alcotest.test_case "finish restores the caller's minor heap" `Quick (fun () ->
        let g0 = Gc.get () in
        Gc.set { g0 with Gc.minor_heap_size = 262_144 };
        Fun.protect ~finally:(fun () -> Gc.set g0) @@ fun () ->
        let pool = Planner.create ~jobs:2 () in
        let tasks = List.map (fun k -> Planner.submit pool (fun () -> Ok k)) [ "a"; "b" ] in
        Alcotest.(check bool) "enlarged while a worker exists" true
          ((Gc.get ()).Gc.minor_heap_size > 262_144);
        List.iter (await pool) tasks;
        Planner.finish pool;
        Alcotest.(check int) "restored" 262_144 (Gc.get ()).Gc.minor_heap_size);
    Alcotest.test_case "pool results are identical at jobs 1, 2 and 4" `Quick (fun () ->
        let keys = List.init 24 string_of_int in
        let job k () =
          match int_of_string k mod 4 with
          | 0 -> Error Robust.Timeout
          | 1 -> failwith ("boom " ^ k)
          | 2 -> raise (Robust.Failure_exn Robust.Budget_exhausted)
          | _ -> Ok (String.length k * 31)
        in
        let table jobs =
          let pool = Planner.create ~jobs () in
          let tasks = List.map (fun k -> Planner.submit pool (job k)) keys in
          List.iter (await pool) tasks;
          let r = List.map (Planner.result pool) tasks in
          Planner.finish pool;
          r
        in
        let one = table 1 in
        (match List.nth one 1 with
        | Some (Error (Robust.Backend_error m)) ->
            Alcotest.(check bool) "exception text kept" true (contains m "boom 1")
        | _ -> Alcotest.fail "a raising job must land as a Backend_error");
        Alcotest.(check bool) "jobs 2" true (table 2 = one);
        Alcotest.(check bool) "jobs 4" true (table 4 = one));
  ]

let canonical_tests =
  [
    Alcotest.test_case "angle keys identify equivalent rotations" `Quick (fun () ->
        let two_pi = 8.0 *. atan 1.0 in
        let key = Pipeline.rz_key ~epsilon:0.07 ~tag:"gridsynth" ~gate_set:"cliffordt" in
        Alcotest.(check string) "negative zero" (key 0.0) (key (-0.0));
        Alcotest.(check string) "wraparound" (key 0.61) (key (0.61 +. two_pi));
        Alcotest.(check string) "double wraparound" (key (-0.61)) (key ((-0.61) -. two_pi)));
    Alcotest.test_case "rz(theta+2pi) is a memo hit, same word" `Quick (fun () ->
        with_obs @@ fun () ->
        Pipeline.clear_caches ();
        let two_pi = 8.0 *. atan 1.0 in
        let word theta =
          (Result.get_ok (Pipeline.gridsynth_rz_attempt ~epsilon:1e-2 theta)).Robust.word
        in
        let w1 = word 0.61 in
        let w2, hits =
          counter_delta "pipeline.gridsynth_cache.hit" (fun () -> word (0.61 +. two_pi))
        in
        Alcotest.(check int) "served from cache" 1 hits;
        Alcotest.(check string) "identical word" (Ctgate.seq_to_string w1) (Ctgate.seq_to_string w2));
  ]

let determinism_tests =
  [
    Alcotest.test_case "gridsynth workflow: --jobs 4 output == --jobs 1" `Slow (fun () ->
        let c = Generators.qft 3 in
        Pipeline.clear_caches ();
        let s1 = Test_pipeline.run (Stream_compile.config ~jobs:1 ()) c in
        Pipeline.clear_caches ();
        let s4 = Test_pipeline.run (Stream_compile.config ~jobs:4 ()) c in
        Alcotest.(check string) "bit-identical QASM"
          (Qasm.to_string s1.Pipeline.circuit)
          (Qasm.to_string s4.Pipeline.circuit));
    Alcotest.test_case "trasyn workflow: --jobs 4 output == --jobs 1" `Slow (fun () ->
        let c = Generators.qft 3 in
        let trasyn = { Trasyn.default_config with samples = 64; table_t = 6; beam = 4 } in
        let budgets = [ 6 ] in
        let cfg jobs =
          Stream_compile.config ~epsilon:0.2 ~ir:Settings.U3_ir ~trasyn ~budgets ~jobs ()
        in
        Pipeline.clear_caches ();
        let s1 = Test_pipeline.run (cfg 1) c in
        Pipeline.clear_caches ();
        let s4 = Test_pipeline.run (cfg 4) c in
        Pipeline.clear_caches ();
        Alcotest.(check string) "bit-identical QASM"
          (Qasm.to_string s1.Pipeline.circuit)
          (Qasm.to_string s4.Pipeline.circuit));
  ]

(* Last in the suite, so the tests above keep their indices. *)
let epsilon_key_tests =
  [
    Alcotest.test_case "an epsilon one ulp away is a memo miss" `Quick (fun () ->
        (* Keys print ε exactly: a word synthesized at 0.07 must not be
           served at the next double below or above it. *)
        with_obs @@ fun () ->
        Pipeline.clear_caches ();
        let attempt epsilon = Result.get_ok (Pipeline.gridsynth_rz_attempt ~epsilon 0.61) in
        ignore (attempt 0.07 : Robust.attempt);
        List.iter
          (fun epsilon ->
            let { Robust.word; distance = d; _ }, misses =
              counter_delta "pipeline.gridsynth_cache.miss" (fun () -> attempt epsilon)
            in
            Alcotest.(check int) (Printf.sprintf "%h misses" epsilon) 1 misses;
            Alcotest.(check bool) (Printf.sprintf "%h met" epsilon) true (d <= epsilon);
            Alcotest.(check bool) "verified" true
              (Mat2.distance (Ctgate.seq_to_mat2 word) (Mat2.rz 0.61) <= epsilon))
          [ Float.succ 0.07; Float.pred 0.07 ]);
  ]

(* Last, so the tests before them keep their indices. *)
let run_count_tests =
  [
    Alcotest.test_case "a chain past its deadline records no rung run" `Quick (fun () ->
        (* What compile_cli --workflow gridsynth --deadline 0 runs. *)
        let c = Circuit.make 1 [ Circuit.instr (Qgate.Rz 0.37) [| 0 |] ] in
        Pipeline.clear_caches ();
        match
          Test_metrics.recorded (fun () ->
              Pipeline.run (Stream_compile.config ~deadline:(Obs.Deadline.after 0.0) ()) c)
        with
        | Ok _, _ -> Alcotest.fail "an expired deadline must fail the run"
        | Error f, records ->
            Alcotest.(check string) "failure" "timeout" (Synth.failure_tag f);
            Alcotest.(check (list (pair int int)))
              "one record, no rung run" [ (0, 0) ]
              (List.map (fun r -> (r.Ledger.attempts, r.Ledger.fallbacks)) records));
  ]

(* TRASYN settings that [Trasyn.synthesize] refuses fail where they
   enter: run through the chain, each refusal was a backend error that
   the gridsynth rung answered as a degraded run. *)
let config_tests =
  let target = Synth.Unitary (Mat2.u3 0.4 1.1 (-0.7)) in
  [
    Alcotest.test_case "config refuses the TRASYN settings synthesize refuses" `Quick (fun () ->
        let config trasyn budgets () = ignore (Synth.config ~trasyn ~budgets ~epsilon:0.07 ()) in
        let d = Trasyn.default_config in
        List.iter
          (fun (trasyn, budgets, msg) ->
            Alcotest.check_raises msg
              (Invalid_argument ("Synth.config: " ^ msg))
              (config trasyn budgets))
          [
            ({ d with samples = 0; beam = 0 }, Synth.default_budgets, "samples below 1");
            ({ d with samples = -3 }, Synth.default_budgets, "samples below 1");
            ({ d with beam = -1 }, Synth.default_budgets, "negative beam");
            (d, [], "empty budget list");
            (d, [ 10; -1 ], "negative budget");
          ];
        (* ε is not checked: trasyn_cli asks for the best word with ε 0. *)
        ignore (Synth.config ~epsilon:0.0 ()));
    Alcotest.test_case "refused settings no longer degrade u3(0.4, 1.1, -0.7) to gridsynth" `Quick
      (fun () ->
        Alcotest.check_raises "samples 0, beam 0" (Invalid_argument "Synth.config: samples below 1")
          (fun () ->
            let trasyn = { Trasyn.default_config with samples = 0; beam = 0 } in
            let config = Synth.config ~trasyn ~epsilon:0.07 () in
            ignore (Synth.run_chain ~config Synth.u3_chain target));
        let trasyn = { Trasyn.default_config with samples = 1; beam = 0 } in
        let config = Synth.config ~trasyn ~epsilon:0.07 () in
        match Synth.run_chain ~config Synth.u3_chain target with
        | Ok a ->
            Alcotest.(check (pair string int))
              "first rung" ("trasyn", 0) (a.Robust.backend, a.Robust.fallbacks)
        | Error f -> Alcotest.fail (Robust.failure_to_string f));
  ]

let suite =
  registry_tests @ adapter_tests @ chain_tests @ planner_tests @ canonical_tests
  @ determinism_tests @ epsilon_key_tests @ pool_tests @ run_count_tests @ config_tests
