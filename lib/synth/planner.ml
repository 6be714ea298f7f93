(* See planner.mli.  The planner is deliberately generic over the job
   payload and result: the server hands it canonicalized rotation keys
   and a Synth chain runner, but tests drive it with stubs. *)

let c_jobs = Obs.counter "obs.planner.jobs"
let c_dedup = Obs.counter "obs.planner.dedup_hits"
let c_domains = Obs.counter "obs.planner.domains"

type 'a job = { key : string; target : 'a }

type 'a plan = { jobs : 'a job array; occurrences : int; dedup_hits : int }

let plan occs =
  let seen = Hashtbl.create 64 in
  let jobs =
    List.filter_map
      (fun (key, target) ->
        if Hashtbl.mem seen key then None
        else begin
          Hashtbl.add seen key ();
          Some { key; target }
        end)
      occs
    |> Array.of_list
  in
  let occurrences = List.length occs in
  { jobs; occurrences; dedup_hits = occurrences - Array.length jobs }

(* Synthesis jobs allocate heavily, and every minor collection is a
   stop-all-domains barrier; at the default minor-heap size the barrier
   fires so often that worker domains spend most of their time
   synchronizing (measured ~4x slowdown with 4 domains on one core).
   While a multi-domain plan runs, give every domain a roomier minor
   heap — the parent around the whole execution, each worker for
   itself on startup — and restore the caller's setting afterwards. *)
let worker_minor_heap_words = 4 * 1024 * 1024

let enlarge_minor_heap () =
  let g = Gc.get () in
  if g.Gc.minor_heap_size < worker_minor_heap_words then
    Gc.set { g with Gc.minor_heap_size = worker_minor_heap_words };
  g

let with_parent_heap domains f =
  if domains <= 1 then f ()
  else begin
    let g = enlarge_minor_heap () in
    Fun.protect ~finally:(fun () -> Gc.set g) f
  end

let execute ?jobs:requested ?(deadline = Obs.Deadline.none) ?job_budget ?ctx ~run plan =
  let requested =
    match requested with Some n -> n | None -> Domain.recommended_domain_count ()
  in
  let n_jobs = Array.length plan.jobs in
  let domains = Int.max 1 (Int.min requested n_jobs) in
  Obs.incr ~by:n_jobs c_jobs;
  Obs.incr ~by:plan.dedup_hits c_dedup;
  Obs.incr ~by:domains c_domains;
  let results : (string, _ ) Hashtbl.t = Hashtbl.create (Int.max 16 n_jobs) in
  let results_lock = Mutex.create () in
  let next = Atomic.make 0 in
  (* Work-stealing over a shared index: results land keyed by job key,
     so the merged table is identical whatever the domain count or
     scheduling order — the determinism the --jobs gate tests. *)
  (* [idx] numbers the domains of this execution (0 = calling domain).
     Each accumulates busy-seconds and a jobs counter under
     obs.planner.domain.<idx>.*, the series the live Metrics sampler
     differentiates into per-domain utilization. *)
  let worker idx parent () =
    if domains > 1 then ignore (enlarge_minor_heap ());
    let g_busy = Obs.gauge (Printf.sprintf "obs.planner.domain.%d.busy_s" idx) in
    let c_done = Obs.counter (Printf.sprintf "obs.planner.domain.%d.jobs" idx) in
    Obs.with_span_parent parent (fun () ->
        let rec loop () =
          let i = Atomic.fetch_and_add next 1 in
          if i < n_jobs then begin
            let job = plan.jobs.(i) in
            let jt0 = Obs.Clock.elapsed_s () in
            let jd =
              match job_budget with
              | None -> deadline
              | Some b -> Obs.Deadline.earliest deadline (Obs.Deadline.after b)
            in
            (* Re-establish the submitting request's context on this
               domain before the job span opens, so cross-domain spans
               (and fresh ledger records) carry the request id. *)
            let with_ctx k =
              match ctx with None -> k () | Some f -> Obs.with_request (f job.target) k
            in
            let res =
              with_ctx (fun () ->
                  Obs.span "planner.job" (fun () ->
                      match run ~deadline:jd job.target with
                      | Error _ as e ->
                          Obs.set_span_attr "backend" "failed";
                          e
                      | Ok _ as ok -> ok
                      | exception Robust.Failure_exn f ->
                          Obs.set_span_attr "backend" "failed";
                          Error f
                      | exception e ->
                          (* A worker domain must never die mid-plan: any
                             stray exception becomes a per-job failure. *)
                          Obs.set_span_attr "backend" "failed";
                          Error (Robust.Backend_error (Printexc.to_string e))))
            in
            Obs.add_gauge g_busy (Obs.Clock.elapsed_s () -. jt0);
            Obs.incr c_done;
            Mutex.lock results_lock;
            Hashtbl.replace results job.key res;
            Mutex.unlock results_lock;
            loop ()
          end
        in
        loop ())
  in
  Obs.span "planner.execute" (fun () ->
      let parent = Obs.current_span_id () in
      with_parent_heap domains (fun () ->
          let helpers =
            List.init (domains - 1) (fun k -> Domain.spawn (worker (k + 1) parent))
          in
          worker 0 parent ();
          List.iter Domain.join helpers));
  results
