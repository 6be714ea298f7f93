(** Streaming compilation: incremental parse → windowed optimization →
    planned synthesis → in-order emission, all interleaved, with
    bounded memory end to end.

    The producer pulls instructions from a source, folds them through a
    {!Stream_opt} window (never more than W gates), and feeds unique
    rotation targets to worker domains over a bounded job queue — a
    full queue blocks the producer, so parsing never outruns synthesis
    (backpressure, visible as the [obs.planner.queue_depth] gauge and
    the [obs.stream.backpressure_waits] counter).  Synthesized words
    are spliced back strictly in input order from a depth-bounded
    reorder FIFO, interleaved with parsing, so output flows before the
    input is fully read.

    Output is byte-identical whatever [jobs] is, and identical to
    {!run_circuit} on the same input: per-key synthesis is
    deterministic, occurrences emit in input order, and the memo cache
    is touched only on the producer in emission order. *)

type config = {
  epsilon : float;  (** per-rotation threshold *)
  gate_set : Gateset.t;
  ir : Settings.ir;  (** window IR: Rz phase-folding or U3 fusion *)
  window : int;  (** W — max gates held by the sliding optimizer *)
  queue : int;  (** job-queue capacity, the backpressure bound *)
  depth : int;  (** max out-of-order results awaiting emission *)
  jobs : int;  (** total domains; 1 = synthesize on the producer *)
  deadline : Obs.Deadline.t;
  rotation_budget : float option;  (** per-job seconds *)
  chain : Synth.rung_spec list option;  (** default: by [ir] *)
  trasyn : Trasyn.config;
  budgets : int list;
}

val config :
  ?epsilon:float ->
  ?gate_set:Gateset.t ->
  ?ir:Settings.ir ->
  ?window:int ->
  ?queue:int ->
  ?depth:int ->
  ?jobs:int ->
  ?deadline:Obs.Deadline.t ->
  ?rotation_budget:float ->
  ?chain:Synth.rung_spec list ->
  ?trasyn:Trasyn.config ->
  ?budgets:int list ->
  unit ->
  config
(** Defaults: ε 0.07, default gate set, Rz IR, window 64, queue 32,
    depth 4096, 1 job, no deadline, chain picked by IR
    ([Synth.rz_chain] / [Synth.u3_chain]).
    @raise Invalid_argument on a non-positive window/queue/depth/jobs. *)

type stats = {
  gates_in : int;  (** instructions consumed from the source *)
  gates_out : int;  (** instructions emitted *)
  t_count : int;
  clifford_count : int;
  rotations_synthesized : int;  (** nontrivial rotation occurrences *)
  unique_syntheses : int;  (** synthesis jobs actually run *)
  dedup_hits : int;  (** occurrences served by memo/in-flight dedup *)
  total_synth_error : float;
  degraded : int;  (** occurrences that fell back or overshot ε *)
  backpressure_waits : int;  (** times the producer blocked on the queue *)
  peak_heap_words : int;  (** process peak heap (obs.heap.peak_words) *)
}

val run :
  config ->
  next:(unit -> Circuit.instr option) ->
  emit:(Circuit.instr -> unit) ->
  (stats, Robust.failure) result
(** Drive the engine: pull from [next] until [None], push every output
    instruction to [emit] (in order, incrementally).  On a synthesis
    failure the run aborts with the structured failure; [emit]ed
    prefixes are valid output of the prefix consumed. *)

val run_qasm :
  config ->
  Qasm_reader.stream ->
  on_qreg:(int -> unit) ->
  emit:(Circuit.instr -> unit) ->
  (stats, Robust.failure) result
(** {!run} over an incremental QASM stream.  [on_qreg] fires on each
    [qreg] declaration (write your header there).
    @raise Qasm_reader.Parse_error as the underlying reader does. *)

val run_circuit : config -> Circuit.t -> (Circuit.t * stats, Robust.failure) result
(** The in-memory reference path: the same engine fed the whole circuit
    as one batch.  Streamed output must be bit-identical to this. *)

val set_cache_capacity : int -> unit
(** Bound the streaming memo cache and each run's resolution table
    (default 65536 entries each, flush-all like
    [Pipeline.set_cache_capacity]).
    @raise Invalid_argument when < 1. *)

val clear_cache : unit -> unit
(** Empty the streaming memo (for cache-cold measurements and
    order-independent tests).  Trivial-rotation words and synthesis
    keys are resolved in a table private to each run, bounded by the
    same capacity, so nothing else outlives a run. *)
