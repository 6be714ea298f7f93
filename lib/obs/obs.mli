(** Observability for the synthesis stack: monotonic span timers, named
    counters/gauges, fixed-bucket histograms, and a JSONL trace/metrics
    exporter.

    Design constraints (they shape the API):

    - {b Cheap when disabled.}  Counters, gauges, and histogram
      observations are always live (an atomic add or a short
      mutex-guarded update, no allocation); {!span} is the only wrapper
      and reduces to a single atomic-bool load plus a tail call when
      disabled.
    - {b Thread/domain-safe.}  Counters are [Atomic]; each histogram
      carries its own mutex; span nesting depth is domain-local.
    - {b Zero new dependencies.}  The only non-stdlib ingredient is the
      CLOCK_MONOTONIC stub already vendored by bechamel (a declared
      dependency of this package).

    Metric names follow a [subsystem.operation] scheme, e.g.
    ["gridsynth.diophantine.attempts"] or ["pipeline.run_trasyn"].

    Tracing is enabled by {!trace_to_file} (the CLIs' [--trace FILE]
    flag) or by setting the [TGATES_TRACE] environment variable to a
    file path before the program starts.  While tracing, every span
    emits one JSONL event; {!finish} (registered [at_exit]) appends the
    final value of every metric and prints a human-readable report to
    stderr. *)

module Clock : sig
  val now_ns : unit -> int64
  (** CLOCK_MONOTONIC, nanoseconds, arbitrary origin. *)

  val elapsed_s : unit -> float
  (** Monotonic seconds since program start.  Use this — never
      [Unix.gettimeofday] — for deadlines and timings, so they survive
      wall-clock jumps (NTP slews, DST, manual clock changes). *)
end

(** {1 Deadlines} *)

(** Wall-budget deadlines on the monotonic clock ({!Clock.elapsed_s}),
    the one currency for time limits across the synthesis stack:
    per-rotation and whole-circuit budgets in [Pipeline], the check
    before each rung in [Synth.run_chain], the candidate search cutoff
    in [Gridsynth].  A deadline is cheap to test (one clock read, no
    allocation) and composes with {!earliest}. *)
module Deadline : sig
  type t

  val none : t
  (** Never expires; [remaining_s none = infinity]. *)

  val after : float -> t
  (** Expires that many seconds from now ([after s] with [s <= 0] is
      already expired).  Non-finite positive spans behave like
      {!none}. *)

  val at : float -> t
  (** Expires at that absolute {!Clock.elapsed_s} instant. *)

  val expired : t -> bool

  val remaining_s : t -> float
  (** Seconds left, clamped to 0; [infinity] for {!none}. *)

  val earliest : t -> t -> t
  (** The tighter of two deadlines — use to combine a per-item budget
      with an enclosing whole-run budget. *)

  val is_none : t -> bool
end

(** {1 Global switch} *)

val enabled : unit -> bool
(** Whether spans record and emit.  Off by default; turned on by
    {!set_enabled}, {!trace_to_file}, or the [TGATES_TRACE] env var. *)

val set_enabled : bool -> unit

(** {1 Counters and gauges} *)

type counter
type gauge

val counter : string -> counter
(** Intern (create or fetch) the counter of that name.  Call once at
    module level and keep the handle: lookups take the registry lock. *)

val incr : ?by:int -> counter -> unit
(** Atomic add ([by] defaults to 1); allocation-free. *)

val counter_value : counter -> int

val gauge : string -> gauge
val set_gauge : gauge -> float -> unit
val add_gauge : gauge -> float -> unit

val max_gauge : gauge -> float -> unit
(** Raise the gauge to [v] if [v] is larger — a CAS loop, so concurrent
    maxima from several domains never regress the value. *)

val gauge_value : gauge -> float

(** {1 Histograms} *)

type histogram

val default_time_buckets : float array
(** Geometric bucket upper bounds from 100ns to 1000s (3 per decade),
    suitable for durations in seconds.  The default for {!histogram}
    and the bucket set used by {!span}. *)

val histogram : ?buckets:float array -> string -> histogram
(** Intern a histogram.  [buckets] are strictly increasing upper
    bounds; an implicit overflow bucket is appended.  If the name is
    already registered the existing histogram is returned and [buckets]
    is ignored.
    @raise Invalid_argument on empty or non-increasing [buckets]. *)

val private_histogram : ?buckets:float array -> string -> histogram
(** A histogram that is {e not} interned in the registry: invisible to
    {!dump}, {!metrics_jsonl}, {!report}, and {!reset}, with a fresh
    instance per call even under an existing name.  For per-instance
    distributions (the server's live request-latency quantiles) that
    must not blend across instances in one process.
    @raise Invalid_argument on empty or non-increasing [buckets]. *)

val observe : histogram -> float -> unit

type summary = {
  count : int;
  sum : float;
  vmin : float;  (** [infinity] when empty *)
  vmax : float;  (** [neg_infinity] when empty *)
  p50 : float;
  p90 : float;
  p95 : float;
  p99 : float;
  p999 : float;
}

val quantile : histogram -> float -> float
(** Bucketed quantile estimate: the upper bound of the bucket holding
    the rank-⌈q·count⌉ observation, clamped to the observed
    \[min, max\].  [nan] when empty. *)

val summarize : histogram -> summary

(** {1 Spans} *)

val span : string -> (unit -> 'a) -> 'a
(** [span name f] times [f ()] with the monotonic clock, records the
    duration into the histogram [name] (kind "span", time buckets), and
    emits a JSONL event when tracing.  Nesting is tracked per domain.
    When {!enabled} is false this is exactly [f ()].  The duration is
    recorded even if [f] raises.

    Span events form a tree: each carries a process-unique [id] and the
    [parent] id of the enclosing span (JSON [null] at the root), so a
    trace can be reassembled into a call tree and self-times computed
    (see [Trace_analysis]).  Each event also carries the span's GC
    attribution — [minor_w]/[major_w]/[promoted_w] words allocated and
    [minor_gc]/[major_gc] collections, measured as [Gc.quick_stat]
    deltas and inclusive of children — and span exit samples the
    ["obs.heap.peak_words"] gauge (max heap words seen). *)

val span_depth : unit -> int
(** Current span nesting depth in this domain (0 outside any span). *)

val current_span_id : unit -> int
(** Id of the innermost open span in this domain; 0 outside any span.
    The value that the next child span will record as its parent. *)

val set_span_attr : string -> string -> unit
(** Attach a string attribute to the innermost open span in this domain;
    emitted in the span's JSONL event as ["attrs":{...}].  Setting the
    same key twice keeps the last value.  No-op when {!enabled} is false
    or outside any span.  The planner tags its worker spans with a
    ["backend"] attribute so [tgates-trace hotspots] can group per-span
    self-time by winning backend. *)

val with_span_parent : int -> (unit -> 'a) -> 'a
(** Run [f] with the domain-local span parent forced to [id], restoring
    it afterwards.  The parent id is domain-local state, so a freshly
    spawned worker domain starts parentless: workers wrap their work in
    [with_span_parent caller_id] to graft their spans onto the caller's
    branch of the trace tree instead of creating orphan roots. *)

(** {1 Request context}

    The ambient wire request.  The server wraps each unit of work in
    {!with_request}; the planner re-establishes the submitting request's
    context on its worker domains before running a job.  While a context
    is set, every closing span gains [req.trace] / [req.id] (and
    [req.batch] for batch elements) attributes, and fresh [Ledger]
    records are stamped with the request id — so [tgates-trace requests]
    can reassemble a cross-domain per-request waterfall and every ledger
    line names the request that caused it.

    Like the span parent, the context is {e domain}-local (DLS), which
    all systhreads of a domain share: two server worker threads
    interleaving on one domain can observe each other's context, while
    planner worker domains (one job at a time) are always exact. *)

type request_ctx = {
  trace_id : string;  (** one id per server process/boot *)
  request_id : string;  (** unique per wire request within the trace *)
  batch_index : int;  (** element index within a batch; [-1] otherwise *)
}

val with_request : request_ctx option -> (unit -> 'a) -> 'a
(** Run [f] with the ambient request context set ([None] clears it),
    restoring the previous context afterwards. *)

val current_request : unit -> request_ctx option
(** The ambient context on this domain, if any. *)

(** {1 Trace export} *)

val trace_to_file : string -> unit
(** Open [path] for writing, emit a meta line, and enable spans.
    Replaces any previously open trace. *)

val tracing : unit -> bool

val finish : unit -> unit
(** Append one JSONL line per registered metric to the trace, close it,
    and print the {!report} of those same values to stderr.  Only the
    call that detaches the trace prints, so the report appears once;
    a no-op when not tracing.  Registered [at_exit]. *)

val with_trace : ?file:string -> (unit -> 'a) -> 'a
(** CLI helper: [with_trace ?file f] enables tracing to [file] when
    given (the [TGATES_TRACE] env var may have enabled it already),
    runs [f], and finishes the trace on the way out. *)

val metrics_jsonl : unit -> string list
(** One JSON object per registered metric (counters, gauges, histogram
    and span summaries), sorted by name. *)

(** {1 Registry snapshot}

    A point-in-time walk of every registered metric, sorted by name —
    the primitive the live [Metrics] sampler is built on.  Counters and
    gauges are single atomic reads; histograms are summarized under
    their own lock.  The walk holds the registry lock only while
    collecting handles, so concurrent interning and observation sites
    are never stalled for the duration of a snapshot. *)

type metric_value =
  | Counter_value of int
  | Gauge_value of float
  | Hist_value of string * summary  (** kind ("span" or "value"), summary *)

val dump : unit -> (string * metric_value) list

val report : ?items:(string * metric_value) list -> out_channel -> unit
(** Human-readable end-of-run report of [items] (default: {!dump}).
    Every pair in {!hit_rates} gets a derived [<p>.hit_rate] line
    (hits/(hits+misses)) — the pipeline memo caches read directly as
    percentages.  Every counter [<s>.<what>] named under a span [<s>]
    with at least one call gets a derived [<s>.<what>/call] line
    (count/calls).  [tgates-trace report] renders a trace's metric
    lines through this same function. *)

val hit_rates : (string * metric_value) list -> (string * int * int) list
(** [(<p>.hit_rate, hits, misses)] for every counter pair [<p>.hit] /
    [<p>.miss] with at least one event, in counter order — the one
    hit-rate rule, shared by {!report} and the live [Metrics] stream. *)

val fmt_seconds : float -> string
(** A duration with its unit (["ns"], ["us"], ["ms"], ["s"]); ["-"] when
    not finite. *)

val reset : unit -> unit
(** Zero every registered metric (handles stay valid) — for tests and
    for separating bench phases. *)

(** {1 Minimal JSON} *)

module Json : sig
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  val parse : string -> (t, string) result
  val to_string : t -> string

  val pretty : t -> string
  (** Two-space-indented multi-line rendering (scalar-only arrays stay
      on one line) — for JSON files meant to live in git, where one
      leaf per line keeps diffs reviewable.  No trailing newline. *)

  val member : string -> t -> t option
  (** Field lookup on [Obj]; [None] otherwise. *)
end

(** {1 JSONL files}

    The one writer and reader of the repo's JSONL artifacts: the trace
    above, the [Ledger] and the [Metrics] stream.  Each artifact keeps
    its own meta line, environment variable, exit hook and flush policy;
    the slot gives them one way to write a line and one way to read a
    file back. *)

module Jsonl : sig
  type slot
  (** A replaceable output file: one lock, one atomic armed flag. *)

  val slot : unit -> slot
  (** A disarmed slot. *)

  val arm : slot -> string -> meta:string -> unit
  (** Open the path for writing, write [meta] as the first line, and
      arm the slot.  An already open file is flushed and closed first,
      complete.  @raise Sys_error when the path cannot be opened. *)

  val armed : slot -> bool
  (** One atomic load. *)

  val path : slot -> string option

  val write : slot -> string -> unit
  (** Append one line (the newline is added) with a single
      [output_string] under the lock, so lines from concurrent domains
      never interleave.  Dropped when disarmed; after a failed write the
      slot writes nothing more until it is re-armed. *)

  val flush : slot -> unit

  val disarm : ?last:string list -> slot -> bool
  (** Append [last] after every earlier line, then flush, close and
      disarm.  True for the call that detached a file; false (and
      nothing written) when the slot was not armed, so it is idempotent. *)

  val fold :
    ?schema:string ->
    string ->
    init:'a ->
    ('a -> string -> Json.t -> ('a, string) result) ->
    ('a, string) result
  (** [fold ?schema path ~init f] reads the file line by line.  Blank
      lines are skipped.  A ["meta"] line must carry [schema] when one
      is given (and is skipped otherwise); every other line is handed to
      [f] with its ["ev"] field ([""] when absent).  Errors read
      ["PATH: line N: message"], with the physical line number, for a
      line that does not parse, a wrong or missing schema, or an [Error]
      from [f]; ["PATH: no SCHEMA meta line"] when [schema] is given and
      no meta line was seen.  The read stops at the first error. *)
end
