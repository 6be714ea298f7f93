(** Consumer side of the [Obs] JSONL traces: reassemble span events into
    a call tree, attribute self-time and GC work, fold stacks for flame
    graphs, diff two runs, and build and validate the [tgates-bench/v2]
    document that [bench/main.exe --suite perf] writes from the
    benchmark's runs.

    The analyses are pure functions over a loaded {!t}; the rendering
    functions produce exactly what the [tgates-trace] CLI prints, so
    tests can drive them without a subprocess. *)

(** {1 Loading} *)

type gc = {
  minor_w : float;
  major_w : float;
  promoted_w : float;
  minor_gc : int;
  major_gc : int;
}

type span = {
  id : int;
  parent : int;  (** 0 = root (emitted as JSON null) *)
  name : string;
  t0 : float;
  dur : float;
  depth : int;
  attrs : (string * string) list;
      (** string attributes ([Obs.set_span_attr]); empty when absent *)
  gc : gc option;  (** [None] for traces from before GC attribution *)
}

type t = {
  spans : span list;  (** in emission order (children close first) *)
  metrics : (string * Obs.metric_value) list;
      (** the trace's final metric lines, as the run's {!Obs.dump} held
          them; sorted by name *)
}

val load : string -> (t, string) result
(** Read a JSONL trace file through {!Obs.Jsonl.fold}.  Unknown event
    kinds and meta lines are skipped; a malformed line
    (["PATH: line N: ..."]) or an unreadable file is an [Error].  Span
    events missing [id] (pre-tree traces) are assigned fresh ids with no
    parent, so every downstream analysis still works, treating each
    span as its own root. *)

(** {1 The span tree} *)

type node = {
  span : span;
  children : node list;  (** by start time *)
  self : float;  (** [dur] minus children's [dur], clamped at 0 *)
}

val tree : t -> node list
(** The span forest: nodes whose parent is 0 or absent from the trace
    (e.g. still open when the process exited) become roots; children
    are ordered by start time. *)

val total_wall : t -> float
(** Sum of the root spans' durations. *)

(** {1 Analyses} *)

type hotspot = {
  hot_name : string;
  calls : int;
  total_s : float;  (** inclusive *)
  self_s : float;  (** exclusive: time in this span, not its children *)
  minor_words : float;  (** inclusive minor allocation, 0 if untracked *)
}

val hotspots : t -> hotspot list
(** Per span {i name}: call count, inclusive and self time, minor
    allocation — sorted by self time, descending.  Spans carrying a
    ["backend"] attribute are grouped under ["name\[backend\]"], so
    planner worker spans split into one row per winning backend.  The
    self times of all hotspots sum to {!total_wall} (up to clamping of
    measurement jitter), so the table accounts for the whole run. *)

val folded_stacks : t -> (string * float) list
(** Flamegraph folded-stacks form: ["root;child;leaf", self seconds]
    aggregated over identical paths, sorted by path.  Render with
    [flamegraph.pl] after scaling seconds to integer microseconds
    (done by {!render_flame}). *)

(** {1 Per-request reassembly}

    Spans emitted while a server request context was ambient carry
    [req.trace] / [req.id] attributes ([Obs.with_request]); batch
    elements get derived ids ["rN.i"].  {!requests} folds a trace into
    one row per top-level wire request — the spans may have been
    emitted from any planner worker domain; the attributes, not the
    tree, are the grouping key. *)

type request = {
  rq_trace : string;  (** server boot trace id; [""] in old traces *)
  rq_id : string;  (** top-level request id, e.g. ["r5"] *)
  rq_t0 : float;  (** earliest span start *)
  rq_latency_s : float;
      (** the server's own ["server.request"] span duration when
          present (brackets queue wait and emission); otherwise the
          extent of the request's span group *)
  rq_spans : int;
  rq_elements : int;  (** distinct batch-element sub-ids; 0 for singles *)
}

val requests : t -> request list
(** One row per top-level request, sorted by start time. *)

val request_spans : t -> trace:string -> id:string -> span list
(** The spans belonging to that request: its own plus its batch
    elements', whatever domain they closed on. *)

val render_requests : ?slowest:int -> Format.formatter -> t -> unit
(** The per-request latency table ([tgates-trace requests]), followed by
    a {!render_request_waterfall} for each of the [slowest] (default 0)
    highest-latency requests. *)

val render_request_waterfall : Format.formatter -> t -> request -> unit
(** One request's spans as an indented waterfall: offset from request
    start, duration, name (with backend/outcome/op attrs and the batch
    element id when present).  Spans whose parent lies outside the
    request — planner workers grafted under the caller — start new
    waterfall roots. *)

(** {1 Rendering (what the CLI prints)} *)

val render_report : out_channel -> t -> unit
(** [tgates-trace report]: one line with the span count, root count and
    root wall time, then {!Obs.report} over the trace's metric lines —
    the report the traced run printed to stderr when it finished, byte
    for byte. *)

val render_hotspots : ?top:int -> Format.formatter -> t -> unit

val render_flame : Format.formatter -> t -> unit
(** One folded-stack line per path, self time in integer microseconds;
    paths with 0µs self time are dropped. *)

(** {1 Diffing two runs} *)

type source = Trace of t | Bench of Obs.Json.t
(** A diffable artifact: a JSONL trace or a bench document
    ({!bench_schema}, or a committed [tgates-bench/v1] file). *)

val load_source : string -> (source, string) result
(** Sniff the file: a single-object JSON file whose [schema] is
    {!bench_schema} or ["tgates-bench/v1"] loads as [Bench]; anything
    else is treated as a JSONL trace. *)

type direction = Lower | Higher  (** which way a series gets better *)

val flatten : source -> (string * float * direction option) list
(** Comparable numeric series, sorted by name, each with its direction.
    For a trace: every counter and gauge under its own name, every
    histogram as [name.sum] / [name.p50] / [name.p90] / [name.p95] /
    [name.p99] / [name.p999] / [name.count], directed by
    {!regression_key}.  For a [tgates-bench/v2] document: each phase's
    [phases.W.attempted] and [phases.W.failed] (no direction) and each
    metric's value as [phases.W.lower.M] or [phases.W.higher.M],
    directed by its group.  For a v1 file: every numeric leaf as its
    dotted path (arrays indexed), minus the [schema] / [meta] header,
    directed by {!regression_key}. *)

type delta = {
  key : string;
  before : float option;  (** [None] = key only in the after run *)
  after : float option;  (** [None] = key only in the before run *)
  pct : float;  (** (after-before)/|before| × 100, so a rise reads
                    positive from a negative base too; [nan] unless both
                    sides are present and before ≠ 0 *)
  better : direction option;  (** the series' direction, from {!flatten} *)
}

val diff : before:source -> after:source -> delta list
(** Union of both key sets, sorted by key. *)

val regression_key : string -> bool
(** The name rule for series that carry no direction of their own
    (traces and v1 bench files): an increase is a slowdown for time
    series (keys containing ["wall_s"] or ["dur"], or ending in
    [".sum"]/[".p50"]/[".p90"]/[".p95"]/[".p99"]/["_s"]), T-counts,
    degraded-rotation counts, and GC totals.  Counters where more is
    better or neutral (cache hits, attempt counts) are excluded. *)

val regressions : fail_above:float -> delta list -> delta list
(** The deltas that fail a CI gate, present on both sides: a [Lower]
    series that rose by more than [fail_above] percent, or a [Higher]
    one whose inverse did (before/after − 1, so a rate that halves has
    regressed by 100 %).  A key newly appearing does not fail. *)

val render_diff : ?fail_above:float -> Format.formatter -> delta list -> unit
(** The diff table (changed keys, then added/removed); with
    [fail_above], a trailing verdict section listing the
    {!regressions}. *)

(** {1 Bench documents (tgates-bench/v2)}

    One phase per benchmark workload:
    [{"correct": b, "attempted": n, "failed": n, "lower": {M: {"value": v,
    "unit": u}, ...}, "higher": {...}}], each metric in the group of
    the direction in which it gets better. *)

val bench_schema : string
(** ["tgates-bench/v2"] — the [schema] field of BENCH_*.json. *)

val bench_phase :
  correct:bool -> attempted:int -> failed:int -> (string * float * string * direction) list -> Obs.Json.t
(** A phase from its checks and its metrics, each as (name, value,
    unit, direction). *)

val bench_document : meta:(string * Obs.Json.t) list -> (string * Obs.Json.t) list -> Obs.Json.t
(** The document of the named phases, with [meta] describing the run. *)

val validate_bench : Obs.Json.t -> (unit, string list) result
(** Structural check of a bench document: the schema tag, a [meta]
    object, and a non-empty [phases] object whose every phase holds a
    boolean [correct], numeric [attempted] and [failed], and [lower] and
    [higher] objects of [{"value": finite number, "unit": string}]
    entries.  [Error] carries one message per problem. *)
