(** Deduplicating multicore rotation planner for the server's batch
    path.  (Circuits, whole or streamed, run on [Stream_compile]'s
    engine instead, which borrows only {!enlarge_minor_heap}.)

    A batch's (key, target) occurrence list goes to {!plan}, which
    collapses repeats into unique jobs (first-appearance order).
    {!execute} runs the jobs across N domains with per-job deadlines
    and collects the results into a key-indexed table the caller reads
    back — so a batch of 16 angles with 4 distinct canonical angles
    pays for 4 syntheses.

    Observability: [obs.planner.jobs] (unique jobs executed),
    [obs.planner.dedup_hits] (occurrences folded away),
    [obs.planner.domains] (worker domains started, accumulated), and
    per-domain [obs.planner.domain.<i>.busy_s] /
    [obs.planner.domain.<i>.jobs] (domain 0 is the calling domain) —
    busy-seconds that the live [Metrics] sampler differentiates into
    per-domain utilization series (the engine feeds the same names);
    each job runs in a ["planner.job"] span carrying a ["backend"]
    attribute (the winning rung's name, or ["failed"]) that
    [tgates-trace hotspots] groups by, all grafted under the caller's
    ["planner.execute"] span via [Obs.with_span_parent]. *)

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
  ?job_budget:float ->
  ?ctx:('a -> Obs.request_ctx option) ->
  run:(deadline:Obs.Deadline.t -> 'a -> ('b, Robust.failure) result) ->
  'a plan ->
  (string, ('b, Robust.failure) result) Hashtbl.t
(** Run every job and return results keyed by job key.

    [ctx] maps a job's target to the request context to establish (via
    [Obs.with_request]) on the worker domain around that job — the
    server's batch path uses it so spans and ledger records emitted on
    {e any} domain carry the originating wire request's id.  When
    omitted, the ambient context (if any) is left untouched.

    [jobs] is the requested domain count (default
    [Domain.recommended_domain_count ()]), clamped to \[1, #jobs\];
    the calling domain is one of the workers, so [jobs:1] spawns no
    domain at all.  Each job's deadline is the tighter of [deadline]
    and [job_budget] seconds from the job's start.  [run] failures
    (returned or raised, including [Robust.Failure_exn]) are stored as
    that job's [Error] — a worker domain never dies mid-plan.  The
    result table is independent of domain count and scheduling order,
    so [--jobs N] output is bit-identical to [--jobs 1].

    While a multi-domain plan runs, every participating domain is
    given a roomier minor heap (allocation-heavy synthesis at the
    default size makes the stop-all-domains minor-GC barrier the
    bottleneck); the calling domain's GC settings are restored on
    return. *)

val enlarge_minor_heap : unit -> Gc.control
(** Raise this domain's minor heap to 4M words if it is smaller, as
    every domain of a multi-domain run does (synthesis allocates
    heavily, and each minor collection is a stop-all-domains barrier);
    returns the settings before the call, for restoring. *)
