(** Durable batch-synthesis server engine.

    Speaks line-delimited JSON: each input line is one request, each
    response is one JSON line handed to the [emit] callback the engine
    was created with.  [bin/serve_cli.ml] wires this to stdin/stdout or
    a Unix-domain socket; the engine itself is transport-agnostic (and
    unit-testable without a process boundary).

    {b Requests} (field [op] selects):

    {v
    {"op":"rz","id":1,"theta":0.37,"epsilon":0.01,"deadline_s":5.0}
    {"op":"u3","id":2,"theta":0.3,"phi":1.1,"lam":-0.7,"epsilon":0.01}
    {"op":"batch","id":3,"requests":[{"op":"rz",...},...]}
    {"op":"ping"}   {"op":"stats"}   {"op":"shutdown"}
    v}

    [id] is echoed verbatim into the response (any JSON value);
    [epsilon] and [deadline_s] default to the server config.
    [rz]/[u3] requests (batch elements included) may carry an optional
    ["gate_set"] — the name of a gate set registered in this process
    (built-ins, plus any loaded from config files by the CLI).  An
    unknown name is rejected with [bad_request] listing the known
    names (no retries, no job, no ledger record); a known one's step-0
    table is enumerated on first use.  Omitted, the server's configured
    default applies.

    {b Responses}: [{"id":…,"request_id":"r7","ok":true,"op":"rz",
    "target":"rz(…)","word":"THTS…","t_count":…,"length":…,
    "distance":…,"backend":…,"fallbacks":…,"retries":…,
    "gate_set":…,"source":"store"|"fresh"|"exact"}] on success;
    [{"id":…,"ok":false,"error":TAG,"message":…}] on failure, where
    [TAG] is ["overloaded"] (admission queue full — backpressure),
    ["bad_request"], or a synthesis failure tag ([timeout],
    [budget_exhausted], …); a synthesis failure also carries
    ["retries"].  A [batch] response carries its sub-responses in-order
    under ["results"].

    {b Rotations run the engine's policy} ([Stream_compile.policy] of a
    config at their ε and gate set; {!create} builds the two at the
    server's own): an [rz] in the Rz IR, a [u3] in the U3 IR, so a [u3]
    runs the TRASYN-first U3 ladder, as [compile_cli] does.  They resolve through [Stream_compile.resolve]: a ≤1-T
    rotation (e.g. [rz(π/4)] or [u3(0,0,π/4)]) is answered with its
    exact word, ["backend":"exact"] and ["source":"exact"], retries 0:
    it runs no planner job and writes no ledger record.  Every other
    rotation is keyed and targeted as the engine would (canonical
    angles, exact ε, the policy's tag, the gate set), singles and batch
    elements alike, so [rz(0.3)] and [rz(0.3+2π)] share one job, one
    word and one ["target"] id, and a word the engine stored serves the
    server.

    {b One synthesis path}: every work item is a batch — a single
    [rz]/[u3] is a one-element one — whose nontrivial rotations run by
    [Planner.execute] on the worker thread that dequeued it, on up to
    [planner_jobs] domains (repeats of a key synthesize once; one
    element starts no domain).  So a single's trace holds ["planner.execute"]
    and ["planner.job"] spans and counts in [obs.planner.jobs] /
    [.domains], and an exception inside its synthesis is answered
    [backend_error], not [internal].  Each ["planner.job"] span carries
    the ["backend"] of its word (the stored word's on a store hit) or
    ["failed"].

    {b Request-scoped tracing}: every parsed wire line gets a
    server-unique [request_id] ("r<seq>", echoed in its response; batch
    elements get "r<seq>.<i>").  Work items run under
    [Obs.with_request { trace_id; request_id; _ }] — [trace_id] is one
    id per server instance — inside a ["server.request"] span, and each
    planner job re-establishes its element's context on whichever
    domain runs it, so every span and fresh ledger record emitted
    during processing names the wire request ([tgates-trace requests]
    reassembles the per-request waterfall).  A batch element folded
    into another element's job gets a [replay] ledger record under its
    own request id, so every served nontrivial rotation has one.  Caveat: the
    context is domain-local, so with [workers > 1] two worker
    {e threads} sharing the initial domain can bleed contexts between
    interleaved requests outside the planner's jobs.

    {b Durability & degradation}: misses run through [Synth.run_chain]
    (store consultation included when [Synth.set_store] armed one);
    transient failures ([Backend_error] only: a [Timeout] means the
    request's deadline, the chain's only one, has expired) are retried
    with exponential backoff, its jitter derived from the element's
    request id and retry index ([Robust.Fault.uniform]), while the
    per-request deadline allows, and a retried rotation's one ledger
    record is the execution it was answered with; the admission queue
    is bounded and sheds with a
    structured [overloaded] response instead of queueing unboundedly;
    {!drain} finishes in-flight work.  Every store write is an append
    flushed when it is made, so draining writes nothing.

    Observability (RED): counters [server.requests], [server.served],
    [server.failed], [server.shed], [server.retries],
    [server.batch.requests], plus per-command [server.requests.<op>] /
    [server.errors.<op>] ([rz], [u3], [batch], [ping], [stats],
    [shutdown], [invalid]); gauges [server.queue.depth] and
    [server.in_flight]; histograms [server.request.duration_s]
    (admission → response emitted, queue wait included) and
    [server.request.queue_wait_s] (admission → dequeue) — all visible
    to the [Metrics] sampler and Prometheus exposition.  Each server
    also keeps private copies of the two histograms and a bounded
    slowest-requests ring for the live [stats] snapshot. *)

type config = {
  epsilon : float;  (** default ε for requests that omit it *)
  gate_set : Gateset.t;  (** default alphabet for requests that omit
                             [gate_set]; per-request names are resolved
                             against the [Gateset] registry *)
  chain : Synth.rung_spec list option;
      (** fallback ladder for misses, [None]: by op.  An explicit chain
          ([--backend-chain]) applies to both ops; its TRASYN rungs run
          [Stream_compile.default_trasyn]. *)
  workers : int;  (** worker threads consuming the queue (≥ 1) *)
  queue_limit : int;  (** max queued work items before shedding *)
  max_retries : int;  (** retry budget for transient failures *)
  backoff_base_s : float;  (** first backoff; doubles per retry *)
  backoff_cap_s : float;  (** backoff ceiling *)
  request_deadline_s : float option;  (** default per-request deadline *)
  planner_jobs : int option;  (** planner domains per work item *)
}

val default_config : config
(** ε 0.07, [Gateset.default], the ladder by op, 1 worker,
    queue 64, 3 retries, base 0.05 s capped at 1 s, no default
    deadline, planner default domains. *)

type t

val create : ?store:Store.t -> emit:(string -> unit) -> config -> t
(** Start the worker threads.  [emit] receives one complete response
    line (no trailing newline) per request; calls are serialized by the
    engine but may come from any worker thread.  [store] feeds only the
    [stats] op — arming synthesis itself is [Synth.set_store]'s job.
    @raise Invalid_argument on a non-positive or non-finite [epsilon]. *)

val submit_line : t -> string -> [ `Continue | `Stop ]
(** Process one request line: control ops ([ping]/[stats]/[shutdown])
    are answered synchronously; synthesis ops are enqueued (or shed
    with [overloaded] when the queue is full).  Unparseable lines get a
    [bad_request] response.  [`Stop] after a [shutdown] op — the caller
    should stop reading and {!drain}. *)

val drain : t -> unit
(** Stop accepting, finish queued + in-flight work and join the
    workers.  It writes nothing.  Idempotent; subsequent
    {!submit_line} calls shed everything. *)

val stats_json : t -> Obs.Json.t
(** The [stats] op's payload — a live health snapshot:
    [trace_id], [uptime_s], request/served/failed/shed/retry totals,
    [queued] / [in_flight] / [workers] / [queue_limit], per-command
    [commands] / [errors] objects, a [gate_sets] object counting
    admitted rotations per gate-set name (batch elements
    individually), [latency] and [queue_wait] quantile
    objects ([count]/[p50_s]/[p95_s]/[p99_s]/[p999_s]/[max_s], from
    this server's private histograms), the [slowest] exemplar ring
    (up to 16 [{request_id, op, latency_s}], slowest first), and —
    when a store is attached — [store_hit_rate] plus the store's
    [Store.stats_json]. *)

val trace_id : t -> string
(** This server instance's boot trace id (the [req.trace] span attr). *)

val uptime_s : t -> float
(** Monotonic seconds since {!create}. *)
