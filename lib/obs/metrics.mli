(** Live metrics exporter.

    A background sampler on a dedicated domain walks the [Obs] registry
    ({!Obs.dump}) on a configurable interval and emits each snapshot
    two ways:

    - a JSONL metrics stream ([tgates-metrics/v1]): one meta line, then
      one ["snapshot"] object per tick carrying every counter, gauge and
      histogram summary plus derived series — rolling rotations/sec,
      planner per-domain utilization, cache hit rates (the end-of-run
      report's rule, [Obs.hit_rates]), heap gauges;
    - a Prometheus-style text exposition file, atomically replaced each
      tick (write-temp-then-rename), for scraping.

    The sampler is observable through the registry it samples: it
    maintains ["obs.metrics.snapshots"] (ticks taken) and
    ["obs.metrics.sampler_wall_s"] (wall time spent inside ticks) — the
    latter is how the perf gate bounds sampler overhead.

    Armed by {!start}, which a binary calls from its start-up code:
    compile_cli and serve_cli from their [--metrics-out] / [--prom-out]
    / [--metrics-interval] flags or, for an absent flag, from its
    environment variable ([TGATES_METRICS], [TGATES_METRICS_PROM],
    [TGATES_METRICS_INTERVAL]).  Nothing starts at module
    initialization: a domain spawned then would stop the threads
    library from initializing.  The stream is
    written through an [Obs.Jsonl] slot, flushed every tick, and read
    back through [Obs.Jsonl.fold] ({!load_stream}).  {!stop} joins the
    sampler domain after a final snapshot, so the stream always ends on
    a complete line and no two lines are ever interleaved: the sampler
    domain is the stream's only writer. *)

val schema : string
(** ["tgates-metrics/v1"] *)

val start : ?interval:float -> ?stream:string -> ?prom:string -> unit -> unit
(** Spawn the sampler domain.  [interval] is seconds between snapshots
    (default 0.25, clamped to ≥ 5ms).  [stream] is the JSONL path,
    [prom] the exposition path; either may be omitted.  No-op when the
    sampler is already running. *)

val running : unit -> bool

val stop : unit -> unit
(** Signal the sampler, join its domain (it takes one final snapshot on
    the way out), and close the stream.  Idempotent; registered
    [at_exit]. *)

val exposition : unit -> string
(** Render the current registry as Prometheus text exposition — what
    the sampler writes to the [prom] file each tick.  Metric names are
    sanitized to [[a-zA-Z0-9_:]] and prefixed with [tgates_];
    histograms become summaries with quantile labels. *)

(** {1 Consumer side} *)

(** Histogram summary as serialized in a snapshot. *)
type hsnap = {
  hs_count : int;
  hs_sum : float;
  hs_p50 : float;
  hs_p90 : float;
  hs_p95 : float;
  hs_p99 : float;
  hs_p999 : float;
}

type snapshot = {
  seq : int;  (** strictly increasing from 1 *)
  t : float;  (** [Obs.Clock.elapsed_s] at the tick *)
  counters : (string * float) list;
  gauges : (string * float) list;
  hists : (string * hsnap) list;
  derived : (string * float) list;
}

val load_stream : string -> (snapshot list, string) result
(** Parse a metrics JSONL stream.  Fails on a missing/mismatched meta
    line, malformed JSON, or duplicate / out-of-order [seq] values (the
    torn-line and double-emission gate), with the errors of
    [Obs.Jsonl.fold] (["PATH: line N: ..."]). *)

val series_names : snapshot list -> string list
(** Union of every series name across snapshots, sorted. *)

val overhead_pct : snapshot list -> float
(** Sampler self-time as a percentage of the stream's covered wall
    time: last ["obs.metrics.sampler_wall_s"] gauge over
    [(last.t - first.t)].  [0.] when the stream spans < 2 snapshots. *)

val render_stream : Format.formatter -> snapshot list -> unit
(** Human-readable timeline: one line per snapshot (rotations/sec, heap
    words, planner utilization) plus a footer with sampler overhead. *)

val parse_exposition : string -> (int, string) result
(** Validate Prometheus text exposition syntax; returns the number of
    samples.  Accepts [# HELP]/[# TYPE] comments, [name value] and
    [name{labels} value] samples. *)
