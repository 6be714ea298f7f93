(** The one worker pool, and the deduplicating planner that runs
    batches on it.

    Every synthesis job runs on a {!pool}: the compilation engine
    ([Stream_compile]) submits each distinct rotation of a compile, and
    {!execute} each distinct job of a server work item.  A pool is a
    bounded job queue, worker domains started on demand (one per job
    beyond the first, up to [jobs − 1]; none at [jobs] 1, where a job
    runs inline as it is submitted), and a caller that runs queued jobs
    instead of blocking.  Each job's result lands in its {!task}, so it
    does not depend on domain count or scheduling.  A raising job fails alone:
    [Robust.Failure_exn f] lands as [Error f], any other exception as a
    [Backend_error] carrying its text.  Once a worker exists every
    domain of the pool gets a 4M-word minor heap (each minor collection
    is a stop-all-domains barrier), until {!finish}.

    Observability: [obs.planner.jobs] (jobs submitted),
    [obs.planner.dedup_hits] (occurrences folded away, by {!execute} and
    by the engine), [obs.planner.domains] (the caller plus each worker
    started), [obs.planner.queue_depth], and per-domain
    [obs.planner.domain.<i>.busy_s] / [.jobs] (0 = the caller), which
    the live [Metrics] sampler turns into utilization.  Each job runs in
    a ["planner.job"] span grafted under the span current at {!create};
    a job submitted with a request context runs inside it on whichever
    domain takes it, so the span carries the [req.*] attributes, and a
    job without one keeps the ambient context.  A failed job's span gets
    [backend = "failed"]; jobs set the winning rung's name themselves,
    which [tgates-trace hotspots] groups by. *)

(** {1 The pool} *)

type 'r pool
(** A pool whose jobs return [('r, Robust.failure) result]. *)

type 'r task
(** One submitted job: the handle its result is read through. *)

val create : jobs:int -> queue:int -> unit -> 'r pool
(** A pool of at most [jobs] domains (the caller included) whose queue
    holds at most [queue] jobs (both at least 1).  Counts the caller in
    [obs.planner.domains]. *)

val submit :
  'r pool -> ?ctx:Obs.request_ctx -> (unit -> ('r, Robust.failure) result) -> 'r task * bool
(** [submit p ?ctx job] queues [job] — or at [jobs] 1 runs it here —
    and returns its task, with [true] when the queue was full, so the
    caller ran queued jobs itself before this one fit.  The pool writes
    the task's result under its lock. *)

val result : 'r pool -> 'r task -> ('r, Robust.failure) result option
(** The task's result, once it has landed. *)

val help : 'r pool -> 'r task -> unit
(** Run one queued job on the caller; with none queued, block until
    the task's result lands.
    @raise Invalid_argument when nothing is queued, no worker exists and
    the task has no result — it was submitted to another pool. *)

val finish : 'r pool -> unit
(** Close the pool, let the workers drain the queue, join them, and
    restore the caller's GC settings.  Idempotent. *)

(** {1 Batches} *)

type 'a job = { key : string; target : 'a }

type 'a plan = {
  jobs : 'a job array;  (** unique targets, in first-appearance order *)
  occurrences : int;  (** input length *)
  dedup_hits : int;  (** [occurrences - Array.length jobs] *)
}

val plan : (string * 'a) list -> 'a plan
(** Dedupe by key; the first occurrence's target wins (keys are built
    from canonicalized angles, so later targets are equal anyway). *)

val execute :
  ?jobs:int ->
  ?deadline:Obs.Deadline.t ->
  ?ctx:('a -> Obs.request_ctx option) ->
  run:(deadline:Obs.Deadline.t -> 'a -> ('b, Robust.failure) result) ->
  'a plan ->
  (string, ('b, Robust.failure) result) Hashtbl.t
(** Run every job of the plan on a pool inside a ["planner.execute"]
    span and return the results keyed by job key: submit every job,
    help until every task has landed, finish.

    [jobs] is the requested domain count (default
    [Domain.recommended_domain_count ()]), clamped to \[1, #jobs\], so
    [jobs:1] and a one-job plan start no domain.  [ctx] maps a job's
    target to the request context it runs under (the server gives
    each element its own, so spans and ledger records on any domain
    name the wire request).  Every job runs under [deadline].  The
    table is independent of domain count and scheduling, so [--jobs N]
    output is bit-identical to [--jobs 1]. *)
