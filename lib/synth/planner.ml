(* See planner.mli.  The pool and the planner are generic over the job
   result: the engine hands the pool chain runs, the server hands
   [execute] canonicalized rotations and a retrying chain runner, and
   tests drive both with stubs. *)

let c_jobs = Obs.counter "obs.planner.jobs"
let c_dedup = Obs.counter "obs.planner.dedup_hits"
let c_domains = Obs.counter "obs.planner.domains"
let g_queue_depth = Obs.gauge "obs.planner.queue_depth"

type 'r task = {
  ctx : Obs.request_ctx option;
  work : unit -> ('r, Robust.failure) result;
  mutable result : ('r, Robust.failure) result option;  (* under the pool's lock *)
}

type 'r pool = {
  max_domains : int;
  queue : 'r task Queue.t;
  lock : Mutex.t;  (* guards [queue], the tasks' results and [closed] *)
  queued : Condition.t;  (* a task was queued, or the pool closed *)
  landed : Condition.t;  (* a result was posted *)
  mutable closed : bool;
  mutable submitted : int;
  mutable workers : unit Domain.t list;
  mutable saved_gc : Gc.control option;  (* the caller's, while workers exist *)
  parent : int;  (* the span current at [create] *)
}

(* Busy-seconds and job count of domain [i] of a pool (0 = the caller),
   the series the live [Metrics] sampler differentiates into
   per-domain utilization. *)
let domain_meters i =
  ( Obs.gauge (Printf.sprintf "obs.planner.domain.%d.busy_s" i),
    Obs.counter (Printf.sprintf "obs.planner.domain.%d.jobs" i) )

(* Every pool's caller is its domain 0: interned once, not per pool. *)
let caller_meters = domain_meters 0

(* Synthesis jobs allocate heavily, and every minor collection is a
   stop-all-domains barrier; at the default minor-heap size the barrier
   fires so often that worker domains spend most of their time
   synchronizing (measured ~4x slowdown with 4 domains on one core).
   Once a pool has a worker, every domain gets a roomier minor heap —
   the caller until [finish], each worker for itself on startup. *)
let worker_minor_heap_words = 4 * 1024 * 1024

let enlarge_minor_heap () =
  let g = Gc.get () in
  if g.Gc.minor_heap_size < worker_minor_heap_words then
    Gc.set { g with Gc.minor_heap_size = worker_minor_heap_words };
  g

let create ~jobs () =
  Obs.incr c_domains;
  {
    max_domains = jobs;
    queue = Queue.create ();
    lock = Mutex.create ();
    queued = Condition.create ();
    landed = Condition.create ();
    closed = false;
    submitted = 0;
    workers = [];
    saved_gc = None;
    parent = Obs.current_span_id ();
  }

(* Run one job on this domain: the one place a job's span opens, a
   raising job becomes its own failure, and the per-domain meters
   advance.  The request context is re-established only when the job
   has one — [Obs.with_request None] would clear the ambient context of
   an inline run. *)
let run_job (g_busy, c_done) ctx work =
  let t0 = Obs.Clock.elapsed_s () in
  let body () =
    Obs.span "planner.job" (fun () ->
        let r =
          match work () with
          | r -> r
          | exception Robust.Failure_exn f -> Error f
          | exception e -> Error (Robust.Backend_error (Printexc.to_string e))
        in
        if Result.is_error r then Obs.set_span_attr "backend" "failed";
        r)
  in
  let r = match ctx with None -> body () | Some _ -> Obs.with_request ctx body in
  Obs.add_gauge g_busy (Obs.Clock.elapsed_s () -. t0);
  Obs.incr c_done;
  r

(* Run a queued task on this domain and post its result. *)
let run_task p meters t =
  let r = run_job meters t.ctx t.work in
  Mutex.lock p.lock;
  t.result <- Some r;
  Condition.broadcast p.landed;
  Mutex.unlock p.lock

(* The oldest queued task, if any; the caller holds the lock. *)
let take p =
  let t = Queue.take_opt p.queue in
  Obs.set_gauge g_queue_depth (float_of_int (Queue.length p.queue));
  t

let worker p i () =
  ignore (enlarge_minor_heap ());
  let meters = domain_meters i in
  Obs.with_span_parent p.parent (fun () ->
      let rec loop () =
        Mutex.lock p.lock;
        while Queue.is_empty p.queue && not p.closed do
          Condition.wait p.queued p.lock
        done;
        let t = take p in
        Mutex.unlock p.lock;
        match t with
        | None -> ()
        | Some t ->
            run_task p meters t;
            loop ()
      in
      loop ())

let submit p ?ctx work =
  Obs.incr c_jobs;
  let t = { ctx; work; result = None } in
  if p.max_domains <= 1 then
    (* No other domain ever touches this pool. *)
    t.result <- Some (run_job caller_meters ctx work)
  else begin
    p.submitted <- p.submitted + 1;
    (* Workers start as jobs arrive, one per job beyond the first, up
       to [jobs − 1]: a pool that gets at most one job spawns none and
       keeps the caller's minor heap. *)
    let n = List.length p.workers in
    if n < Int.min (p.max_domains - 1) (p.submitted - 1) then begin
      if Option.is_none p.saved_gc then p.saved_gc <- Some (enlarge_minor_heap ());
      Obs.incr c_domains;
      p.workers <- Domain.spawn (worker p (n + 1)) :: p.workers
    end;
    Mutex.lock p.lock;
    Queue.push t p.queue;
    Obs.set_gauge g_queue_depth (float_of_int (Queue.length p.queue));
    Condition.signal p.queued;
    Mutex.unlock p.lock
  end;
  t

(* At one domain nothing else touches the pool, so no lock is taken. *)
let result p t =
  if p.max_domains > 1 then Mutex.lock p.lock;
  let r = t.result in
  if p.max_domains > 1 then Mutex.unlock p.lock;
  r

let help p t =
  Mutex.lock p.lock;
  if Option.is_some t.result then Mutex.unlock p.lock
  else
    match take p with
    | Some q ->
        Mutex.unlock p.lock;
        run_task p caller_meters q
    | None when p.workers = [] ->
        (* Nothing queued and nothing running: [t] can never land. *)
        Mutex.unlock p.lock;
        invalid_arg "Planner.help: the task was not submitted to this pool"
    | None ->
        while Option.is_none t.result do
          Condition.wait p.landed p.lock
        done;
        Mutex.unlock p.lock

let finish p =
  Mutex.lock p.lock;
  p.closed <- true;
  Condition.broadcast p.queued;
  Mutex.unlock p.lock;
  List.iter Domain.join p.workers;
  p.workers <- [];
  Option.iter Gc.set p.saved_gc;
  p.saved_gc <- None

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

let execute ?jobs ?(deadline = Obs.Deadline.none) ?ctx ~run plan =
  let requested = Option.value jobs ~default:(Domain.recommended_domain_count ()) in
  let n_jobs = Array.length plan.jobs in
  Obs.incr ~by:plan.dedup_hits c_dedup;
  Obs.span "planner.execute" (fun () ->
      let p = create ~jobs:(Int.max 1 (Int.min requested n_jobs)) () in
      Fun.protect ~finally:(fun () -> finish p) @@ fun () ->
      let tasks =
        Array.map
          (fun (j : _ job) ->
            let ctx = Option.bind ctx (fun f -> f j.target) in
            submit p ?ctx (fun () -> run ~deadline j.target))
          plan.jobs
      in
      let results = Hashtbl.create n_jobs in
      Array.iter2
        (fun (j : _ job) t ->
          let rec await () = match result p t with Some r -> r | None -> help p t; await () in
          Hashtbl.replace results j.key (await ()))
        plan.jobs tasks;
      results)
