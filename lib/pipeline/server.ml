(* See server.mli.  One bounded queue, N worker threads, responses
   serialized through the emit callback.  Every work item — a batch, or
   a single rotation as a one-element batch — resolves its rotations
   under the engine's policy for their op (trivial ones answered with
   their exact word) and runs the rest through Planner.execute, each
   job Synth.run_chain_sourced with the policy's chain and config, so
   the persistent store, the guard, the fault layer, and the provenance
   ledger all apply unchanged.

   Request-scoped tracing: every parsed wire line gets a server-unique
   request id ("r<seq>"), echoed in its response; work items establish
   an [Obs.request_ctx] (the server's boot trace id + the request id)
   around processing, and each job re-establishes its element's context
   ("r<seq>", or "r<seq>.<i>" in a batch) on whichever pool domain runs
   it — so spans and ledger records emitted anywhere name the wire
   request. *)

let c_requests = Obs.counter "server.requests"
let c_served = Obs.counter "server.served"
let c_failed = Obs.counter "server.failed"
let c_shed = Obs.counter "server.shed"
let c_retries = Obs.counter "server.retries"
let c_batch = Obs.counter "server.batch.requests"
let g_queue = Obs.gauge "server.queue.depth"
let g_in_flight = Obs.gauge "server.in_flight"

(* RED histograms, process-global so the Metrics sampler and the
   Prometheus exposition pick them up.  duration = admission → response
   emitted (queue wait included); queue_wait = admission → dequeue. *)
let h_duration = Obs.histogram "server.request.duration_s"
let h_queue_wait = Obs.histogram "server.request.queue_wait_s"

(* Per-command request/error counters ("server.requests.rz", …).
   [Obs.counter] interns, so repeated calls return the same cell; the
   registry lock is negligible next to a synthesis request. *)
let c_op op = Obs.counter ("server.requests." ^ op)
let c_op_err op = Obs.counter ("server.errors." ^ op)

(* Bound of the slowest-requests exemplar ring in [stats_json]. *)
let slowest_cap = 16

type config = {
  epsilon : float;
  gate_set : Gateset.t;
  chain : Synth.rung_spec list option;
  workers : int;
  queue_limit : int;
  max_retries : int;
  backoff_base_s : float;
  backoff_cap_s : float;
  request_deadline_s : float option;
  planner_jobs : int option;
}

let default_config =
  {
    epsilon = 0.07;
    gate_set = Gateset.default;
    chain = None;
    workers = 1;
    queue_limit = 64;
    max_retries = 3;
    backoff_base_s = 0.05;
    backoff_cap_s = 1.0;
    request_deadline_s = None;
    planner_jobs = None;
  }

(* One rotation to answer.  [rid] is the tracing request id; batch
   elements carry derived ids "r<seq>.<i>" with their element index.
   [res] is its [Stream_compile.resolve] under [policy]: its job's key
   and target, or a trivial one's exact answer, which runs no job. *)
type rotation = {
  id : Obs.Json.t;
  rid : string;
  batch_index : int;  (* -1 for singles *)
  res : Stream_compile.resolved;
  policy : Stream_compile.policy;
  deadline_s : float option;
}

(* One admitted unit of work: a batch ([op] "batch"), or a single
   rotation as a one-element list ([op] "rz"/"u3").  A batch occupies
   queue slots proportional to its size, so a giant batch cannot sneak
   past the admission bound. *)
type work = { id : Obs.Json.t; rid : string; op : string; rotations : rotation list }

type item = { work : work; admitted_at : float }

type t = {
  cfg : config;
  policies : Stream_compile.policy * Stream_compile.policy;  (* Rz, U3 at [cfg]'s ε and gate set *)
  store : Store.t option;
  emit : string -> unit;
  emit_mutex : Mutex.t;
  queue : item Queue.t;
  mutable queued_slots : int;
  mutable in_flight : int;
  mutable stopping : bool;
  mutable drained : bool;
  mutex : Mutex.t;
  nonempty : Condition.t;
  idle : Condition.t;
  mutable threads : Thread.t list;
  trace_id : string;  (* one per server instance ("boot") *)
  created_at : float;  (* Obs.Clock.elapsed_s at create *)
  mutable req_seq : int;  (* request-id allocator; under [mutex] *)
  (* Per-instance latency distributions for the live [stats] op —
     private so two servers in one process don't blend. *)
  h_dur_local : Obs.histogram;
  h_wait_local : Obs.histogram;
  (* Slowest work items seen: (rid, op, latency_s), at most
     [slowest_cap], unordered; under [mutex]. *)
  mutable slowest : (string * string * float) list;
  (* per-server mirrors for stats_json *)
  mutable n_requests : int;
  mutable n_served : int;
  mutable n_failed : int;
  mutable n_shed : int;
  mutable n_retries : int;
  cmd_counts : (string, int) Hashtbl.t;  (* under [mutex] *)
  cmd_errors : (string, int) Hashtbl.t;  (* under [mutex] *)
  gs_counts : (string, int) Hashtbl.t;  (* rotations per gate set; under [mutex] *)
}

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let emit_line t s =
  Mutex.lock t.emit_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.emit_mutex) (fun () -> t.emit s)

let respond t json = emit_line t (Obs.Json.to_string json)

let bump tbl key =
  Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))

(* Count one wire command (and optionally its error) on both the
   process-global counters and the per-server mirrors. *)
let count_command t op =
  Obs.incr (c_op op);
  locked t (fun () -> bump t.cmd_counts op)

let count_error t op =
  Obs.incr (c_op_err op);
  locked t (fun () -> bump t.cmd_errors op)

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)
(* ------------------------------------------------------------------ *)

let error_response ?(extra = []) ?rid id tag message =
  Obs.Json.Obj
    ([ ("id", id); ("ok", Obs.Json.Bool false); ("error", Obs.Json.Str tag);
       ("message", Obs.Json.Str message) ]
    @ (match rid with Some r -> [ ("request_id", Obs.Json.Str r) ] | None -> [])
    @ extra)

let success_response (r : rotation) (a : Robust.attempt) source retries =
  let open Obs.Json in
  Obj
    [
      ("id", r.id);
      ("request_id", Str r.rid);
      ("ok", Bool true);
      ("op", Str (Settings.ir_to_string r.policy.ir));
      ("target", Str (Synth.target_id r.res.target));
      ("word", Str (Ctgate.seq_to_string a.Robust.word));
      ("t_count", Num (float_of_int (Ctgate.t_count a.Robust.word)));
      ("length", Num (float_of_int (List.length a.Robust.word)));
      ("distance", Num a.Robust.distance);
      ("backend", Str a.Robust.backend);
      ("fallbacks", Num (float_of_int a.Robust.fallbacks));
      ("retries", Num (float_of_int retries));
      ("gate_set", Str (Synth.gate_set_name r.policy.synth));
      ( "source",
        Str (match source with `Store -> "store" | `Fresh -> "fresh" | `Exact -> "exact") );
    ]

(* ------------------------------------------------------------------ *)
(* Synthesis with retry/backoff                                        *)
(* ------------------------------------------------------------------ *)

let deadline_of t (r : rotation) =
  match (r.deadline_s, t.cfg.request_deadline_s) with
  | Some s, _ | None, Some s -> Obs.Deadline.after s
  | None, None -> Obs.Deadline.none

(* Backend errors are transient: a fault-injected or load-induced blip
   may clear on a retry.  Budget_exhausted and Verification_failed are
   deterministic — the same chain gives the same answer — and a Timeout
   means the request's deadline, the chain's only one, has expired; so
   none of those is retried. *)
let transient = function
  | Robust.Backend_error _ -> true
  | Robust.Timeout | Robust.Budget_exhausted | Robust.Verification_failed -> false

(* One job: the chain, run again after a transient failure (with
   backoff) while the retry budget and the deadline allow; [tries]
   counts the retries.  Only the execution answered with writes a
   ledger record.  A success tags the job's span with the backend that
   produced the word (the stored word's, on a store hit). *)
let synthesize t (r : rotation) tries =
  let deadline = deadline_of t r in
  let retry f =
    let again =
      transient f && !tries < t.cfg.max_retries && not (Obs.Deadline.expired deadline)
    in
    if again then begin
      let back =
        Float.min t.cfg.backoff_cap_s
          (t.cfg.backoff_base_s *. Float.pow 2.0 (float_of_int !tries))
      in
      (* Jitter in [0.5, 1.0] × backoff, from the element's request id
         and the retry index alone. *)
      let jitter = Robust.Fault.uniform (Printf.sprintf "backoff\x00%s\x00%d" r.rid !tries) in
      Unix.sleepf (back *. (0.5 +. (0.5 *. jitter)));
      Obs.incr c_retries;
      locked t (fun () -> t.n_retries <- t.n_retries + 1);
      incr tries
    end;
    again
  in
  let result =
    Synth.run_chain_sourced ~deadline ~retry ~config:r.policy.synth r.policy.chain r.res.target
  in
  Result.iter (fun (a, _) -> Obs.set_span_attr "backend" a.Robust.backend) result;
  result

(* A work item runs its nontrivial rotations on the deduplicating
   planner: repeated keys synthesize once, distinct keys run across
   domains.  Each job runs under the context of the first element with
   its key (dedup folds the rest away — their responses replay the
   job's result and retries, and each gets a replay ledger record under
   its own request id, so the ledger holds one record per nontrivial
   rotation served).  The key carries the gate set: the same angle at
   the same ε under two alphabets is two jobs.  A trivial rotation is
   answered with its exact word: no job, no ledger record. *)
let work_response t w =
  let open Obs.Json in
  let elements = List.map (fun (r : rotation) -> (r, ref 0)) w.rotations in
  let plan =
    Planner.plan
      (List.filter_map
         (fun (((r : rotation), _) as e) ->
           if r.res.exact = None then Some (r.res.key, e) else None)
         elements)
  in
  let results =
    if plan.jobs = [||] then Hashtbl.create 0
    else
      Planner.execute ?jobs:t.cfg.planner_jobs
        ~ctx:(fun ((r : rotation), _) ->
          Some { Obs.trace_id = t.trace_id; request_id = r.rid; batch_index = r.batch_index })
        ~run:(fun ~deadline:_ (r, tries) -> Ok (synthesize t r tries))
        plan
  in
  let job_tries = Hashtbl.create 8 in
  Array.iter (fun (j : _ Planner.job) -> Hashtbl.replace job_tries j.key (snd j.target)) plan.jobs;
  let served r a source retries =
    Obs.incr c_served;
    locked t (fun () -> t.n_served <- t.n_served + 1);
    success_response r a source retries
  in
  let element ((r : rotation), own) =
    match r.res.exact with
    | Some a -> served r a `Exact 0
    | None -> (
        let tries = Hashtbl.find job_tries r.res.key in
        let retries = !tries in
        (* A job that raised ran no chain to its end. *)
        let result =
          match Hashtbl.find results r.res.key with Ok result -> result | Error f -> Error (f, 0)
        in
        if own != tries && Ledger.enabled () then
          Ledger.record
            (Synth.ledger_record ~request_id:r.rid ~config:r.policy.synth r.policy.chain r.res.target
               ~source:`Replay ~wall_s:0.0 (Result.map fst result));
        match result with
        | Ok (a, source) -> served r a source retries
        | Error (f, _) ->
            Obs.incr c_failed;
            count_error t (Settings.ir_to_string r.policy.ir);
            locked t (fun () -> t.n_failed <- t.n_failed + 1);
            error_response
              ~extra:[ ("retries", Num (float_of_int retries)) ]
              ~rid:r.rid r.id (Synth.failure_tag f) (Robust.failure_to_string f))
  in
  let subs = List.map element elements in
  if w.op = "batch" then
    Obj
      [ ("id", w.id); ("request_id", Str w.rid); ("ok", Bool true); ("op", Str "batch");
        ("results", Arr subs) ]
  else List.hd subs

(* ------------------------------------------------------------------ *)
(* Workers                                                             *)
(* ------------------------------------------------------------------ *)

let slots_of w = max 1 (List.length w.rotations)

(* Record a finished work item: latency histograms (global + this
   server's private stats copy) and the slowest-requests ring. *)
let note_done t ~rid ~op ~wait_s ~latency_s =
  Obs.observe h_duration latency_s;
  Obs.observe h_queue_wait wait_s;
  Obs.observe t.h_dur_local latency_s;
  Obs.observe t.h_wait_local wait_s;
  locked t (fun () ->
      if List.length t.slowest < slowest_cap then t.slowest <- (rid, op, latency_s) :: t.slowest
      else begin
        (* Replace the fastest remembered exemplar if we beat it. *)
        let min_l = List.fold_left (fun a (_, _, l) -> Float.min a l) infinity t.slowest in
        if latency_s > min_l then begin
          let dropped = ref false in
          t.slowest <-
            (rid, op, latency_s)
            :: List.filter
                 (fun (_, _, l) ->
                   if (not !dropped) && l = min_l then begin
                     dropped := true;
                     false
                   end
                   else true)
                 t.slowest
        end
      end)

let worker_loop t =
  let rec loop () =
    let item =
      locked t (fun () ->
          while Queue.is_empty t.queue && not t.stopping do
            Condition.wait t.nonempty t.mutex
          done;
          if Queue.is_empty t.queue then None
          else begin
            let w = Queue.pop t.queue in
            t.queued_slots <- t.queued_slots - slots_of w.work;
            t.in_flight <- t.in_flight + 1;
            Obs.set_gauge g_queue (float_of_int t.queued_slots);
            Some w
          end)
    in
    match item with
    | None -> ()  (* stopping and empty *)
    | Some { work = w; admitted_at } ->
        Obs.add_gauge g_in_flight 1.0;
        let wait_s = Obs.Clock.elapsed_s () -. admitted_at in
        (* Context + span around the whole processing step: every span
           opened below (chain runs, store lookups, planner jobs) carries
           this request's identity.  NB the context is domain-local, so
           with [workers > 1] two worker *threads* sharing this domain
           can bleed contexts; planner jobs re-establish their own, so
           their spans are always exact. *)
        let ctx =
          Some { Obs.trace_id = t.trace_id; request_id = w.rid; batch_index = -1 }
        in
        let response =
          Obs.with_request ctx (fun () ->
              Obs.span "server.request" (fun () ->
                  Obs.set_span_attr "op" w.op;
                  try work_response t w
                  with e ->
                    Obs.incr c_failed;
                    count_error t w.op;
                    error_response ~rid:w.rid w.id "internal" (Printexc.to_string e)))
        in
        respond t response;
        note_done t ~rid:w.rid ~op:w.op ~wait_s ~latency_s:(Obs.Clock.elapsed_s () -. admitted_at);
        Obs.add_gauge g_in_flight (-1.0);
        locked t (fun () ->
            t.in_flight <- t.in_flight - 1;
            if t.in_flight = 0 && Queue.is_empty t.queue then Condition.broadcast t.idle);
        loop ()
  in
  loop ()

let create ?store ~emit cfg =
  let t =
    {
      cfg = { cfg with workers = max 1 cfg.workers; queue_limit = max 1 cfg.queue_limit };
      policies =
        (let c = Stream_compile.config ~epsilon:cfg.epsilon ~gate_set:cfg.gate_set ?chain:cfg.chain () in
         (Stream_compile.policy c, Stream_compile.policy { c with ir = Settings.U3_ir }));
      store;
      emit;
      emit_mutex = Mutex.create ();
      queue = Queue.create ();
      queued_slots = 0;
      in_flight = 0;
      stopping = false;
      drained = false;
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      idle = Condition.create ();
      threads = [];
      (* Unique per boot: pid + monotonic nanoseconds.  Lets traces
         from a warm-restarted server distinguish the two lives. *)
      trace_id =
        Printf.sprintf "srv-%d-%Lx" (Unix.getpid ())
          (Int64.logand (Obs.Clock.now_ns ()) 0xffffffffL);
      created_at = Obs.Clock.elapsed_s ();
      req_seq = 0;
      h_dur_local = Obs.private_histogram "server.request.duration_s";
      h_wait_local = Obs.private_histogram "server.request.queue_wait_s";
      slowest = [];
      n_requests = 0;
      n_served = 0;
      n_failed = 0;
      n_shed = 0;
      n_retries = 0;
      cmd_counts = Hashtbl.create 8;
      cmd_errors = Hashtbl.create 8;
      gs_counts = Hashtbl.create 8;
    }
  in
  t.threads <- List.init t.cfg.workers (fun _ -> Thread.create worker_loop t);
  t

let trace_id t = t.trace_id
let uptime_s t = Obs.Clock.elapsed_s () -. t.created_at

(* ------------------------------------------------------------------ *)
(* Request parsing                                                     *)
(* ------------------------------------------------------------------ *)

let jid j = Option.value (Obs.Json.member "id" j) ~default:Obs.Json.Null

let parse_rotation t ~rid ~batch_index j =
  let open Obs.Json in
  let num k = match member k j with Some (Num f) when Float.is_finite f -> Some f | _ -> None in
  let epsilon = match member "epsilon" j with Some (Num f) -> f | _ -> t.cfg.epsilon in
  let deadline_s = num "deadline_s" in
  (* Optional per-request alphabet: a registered gate-set name.  An
     unknown name is a request error, not a server fault — reject it
     with the list of names this process knows. *)
  let gate_set =
    match member "gate_set" j with
    | None -> Ok t.cfg.gate_set
    | Some (Str name) -> (
        match Gateset.find name with
        | Some gs -> Ok gs
        | None ->
            Error
              (Printf.sprintf "unknown gate set %S (known: %s)" name
                 (String.concat ", " (Gateset.names ()))))
    | Some _ -> Error "gate_set must be a string"
  in
  match gate_set with
  | Error e -> Error e
  | Ok gate_set -> (
      if not (epsilon > 0.0 && Float.is_finite epsilon) then Error "epsilon must be positive and finite"
      else
        let rotation ir g =
          let policy =
            if epsilon = t.cfg.epsilon && gate_set == t.cfg.gate_set then
              (if ir = Settings.Rz_ir then fst else snd) t.policies
            else Stream_compile.(policy (config ~epsilon ~gate_set ~ir ?chain:t.cfg.chain ()))
          in
          match Stream_compile.resolve policy g with
          | Ok res -> Ok { id = jid j; rid; batch_index; res; policy; deadline_s }
          | Error f -> Error (Robust.failure_to_string f)
        in
        match member "op" j with
        | Some (Str "rz") -> (
            match num "theta" with
            | Some theta -> rotation Settings.Rz_ir (Qgate.Rz theta)
            | None -> Error "rz needs a numeric theta")
        | Some (Str "u3") -> (
            match (num "theta", num "phi", num "lam") with
            | Some th, Some ph, Some lm -> rotation Settings.U3_ir (Qgate.U3 (th, ph, lm))
            | _ -> Error "u3 needs numeric theta, phi, lam")
        | _ -> Error "expected op rz or u3")

let shed t ~rid ~op id slots =
  Obs.incr c_shed ~by:slots;
  count_error t op;
  locked t (fun () -> t.n_shed <- t.n_shed + slots);
  respond t
    (error_response
       ~extra:[ ("queue_limit", Obs.Json.Num (float_of_int t.cfg.queue_limit)) ]
       ~rid id "overloaded" "admission queue full; retry later")

(* Admission: shed when the queue (in slots) is full or the server is
   draining; otherwise enqueue and wake a worker. *)
let admit t work =
  let slots = slots_of work in
  let admitted =
    locked t (fun () ->
        if t.stopping || t.queued_slots + slots > t.cfg.queue_limit then false
        else begin
          Queue.push { work; admitted_at = Obs.Clock.elapsed_s () } t.queue;
          t.queued_slots <- t.queued_slots + slots;
          (* Rotations per gate set, for the [stats] op. *)
          List.iter (fun r -> bump t.gs_counts (Synth.gate_set_name r.policy.synth)) work.rotations;
          Obs.set_gauge g_queue (float_of_int t.queued_slots);
          Condition.signal t.nonempty;
          true
        end)
  in
  if not admitted then shed t ~rid:work.rid ~op:work.op work.id slots

let quantiles_json h =
  let open Obs.Json in
  let s = Obs.summarize h in
  let q v = if Float.is_finite v then Num v else Null in
  Obj
    [
      ("count", Num (float_of_int s.Obs.count));
      ("p50_s", q s.Obs.p50);
      ("p95_s", q s.Obs.p95);
      ("p99_s", q s.Obs.p99);
      ("p999_s", q s.Obs.p999);
      ("max_s", q s.Obs.vmax);
    ]

let stats_json t =
  let open Obs.Json in
  let queued, in_flight, counts, cmds, errs, gsets, slowest =
    locked t (fun () ->
        ( t.queued_slots,
          t.in_flight,
          (t.n_requests, t.n_served, t.n_failed, t.n_shed, t.n_retries),
          Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.cmd_counts [],
          Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.cmd_errors [],
          Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.gs_counts [],
          t.slowest ))
  in
  let n_requests, n_served, n_failed, n_shed, n_retries = counts in
  let count_obj kvs =
    Obj (List.sort compare kvs |> List.map (fun (k, v) -> (k, Num (float_of_int v))))
  in
  (* Store hit rate over this process's lookups, from the attached
     store's own counters. *)
  let store_fields =
    match t.store with
    | None -> []
    | Some st ->
        let sj = Store.stats_json st in
        let f k = match member k sj with Some (Num v) -> v | _ -> 0.0 in
        let hits = f "hits" and misses = f "misses" in
        [
          ( "store_hit_rate",
            if hits +. misses > 0.0 then Num (hits /. (hits +. misses)) else Null );
          ("store", sj);
        ]
  in
  Obj
    ([
       ("schema", Str "tgates-server-stats/v1");
       ("trace_id", Str t.trace_id);
       ("uptime_s", Num (uptime_s t));
       ("requests", Num (float_of_int n_requests));
       ("served", Num (float_of_int n_served));
       ("failed", Num (float_of_int n_failed));
       ("shed", Num (float_of_int n_shed));
       ("retries", Num (float_of_int n_retries));
       ("queued", Num (float_of_int queued));
       ("in_flight", Num (float_of_int in_flight));
       ("workers", Num (float_of_int t.cfg.workers));
       ("queue_limit", Num (float_of_int t.cfg.queue_limit));
       ("commands", count_obj cmds);
       ("errors", count_obj errs);
       ("gate_sets", count_obj gsets);
       ("latency", quantiles_json t.h_dur_local);
       ("queue_wait", quantiles_json t.h_wait_local);
       ( "slowest",
         Arr
           (List.sort (fun (_, _, a) (_, _, b) -> compare b a) slowest
           |> List.map (fun (rid, op, l) ->
                  Obj [ ("request_id", Str rid); ("op", Str op); ("latency_s", Num l) ])) );
     ]
    @ store_fields)

let submit_line t line =
  let open Obs.Json in
  let line = String.trim line in
  if line = "" then `Continue
  else begin
    Obs.incr c_requests;
    let rid =
      locked t (fun () ->
          t.n_requests <- t.n_requests + 1;
          t.req_seq <- t.req_seq + 1;
          Printf.sprintf "r%d" t.req_seq)
    in
    match parse line with
    | Error e ->
        count_command t "invalid";
        count_error t "invalid";
        respond t (error_response ~rid Null "bad_request" ("unparseable request: " ^ e));
        `Continue
    | Ok j -> (
        match member "op" j with
        | Some (Str "ping") ->
            count_command t "ping";
            respond t
              (Obj [ ("id", jid j); ("request_id", Str rid); ("ok", Bool true); ("op", Str "ping") ]);
            `Continue
        | Some (Str "stats") ->
            count_command t "stats";
            respond t
              (Obj
                 [
                   ("id", jid j);
                   ("request_id", Str rid);
                   ("ok", Bool true);
                   ("op", Str "stats");
                   ("stats", stats_json t);
                 ]);
            `Continue
        | Some (Str "shutdown") ->
            count_command t "shutdown";
            respond t
              (Obj
                 [
                   ("id", jid j); ("request_id", Str rid); ("ok", Bool true); ("op", Str "shutdown");
                 ]);
            `Stop
        | Some (Str "batch") -> (
            Obs.incr c_batch;
            count_command t "batch";
            match member "requests" j with
            | Some (Arr reqs) -> (
                let parsed =
                  List.mapi
                    (fun i r ->
                      parse_rotation t ~rid:(Printf.sprintf "%s.%d" rid i) ~batch_index:i r)
                    reqs
                in
                match List.find_opt Result.is_error parsed with
                | Some (Error e) ->
                    count_error t "batch";
                    respond t (error_response ~rid (jid j) "bad_request" e);
                    `Continue
                | _ ->
                    admit t
                      {
                        id = jid j;
                        rid;
                        op = "batch";
                        rotations = List.filter_map Result.to_option parsed;
                      };
                    `Continue)
            | _ ->
                count_error t "batch";
                respond t (error_response ~rid (jid j) "bad_request" "batch needs a requests array");
                `Continue)
        | Some (Str (("rz" | "u3") as op)) -> (
            count_command t op;
            match parse_rotation t ~rid ~batch_index:(-1) j with
            | Ok r ->
                admit t { id = r.id; rid; op; rotations = [ r ] };
                `Continue
            | Error e ->
                count_error t op;
                respond t (error_response ~rid (jid j) "bad_request" e);
                `Continue)
        | Some (Str op) ->
            count_command t "invalid";
            count_error t "invalid";
            respond t (error_response ~rid (jid j) "bad_request" ("unknown op " ^ op));
            `Continue
        | _ ->
            count_command t "invalid";
            count_error t "invalid";
            respond t (error_response ~rid (jid j) "bad_request" "missing op");
            `Continue)
  end

let drain t =
  let join =
    locked t (fun () ->
        if t.drained then []
        else begin
          t.stopping <- true;
          Condition.broadcast t.nonempty;
          while not (Queue.is_empty t.queue && t.in_flight = 0) do
            Condition.wait t.idle t.mutex
          done;
          t.drained <- true;
          let th = t.threads in
          t.threads <- [];
          th
        end)
  in
  List.iter Thread.join join
