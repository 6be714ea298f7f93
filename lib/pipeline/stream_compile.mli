(** The compilation engine, the one place circuits are synthesized:
    resolve → key → dedup → synthesize on domains → splice back in
    order, interleaved with reading the input, with bounded memory end
    to end.  {!run}, {!run_qasm} and {!run_circuit} fold the input
    through a {!Stream_opt} window (never more than W gates) first — the
    streaming CLI; {!run_ir} takes an IR circuit as it stands — the
    whole-circuit workflows of [Pipeline], after [Settings.best_for].

    The producer (calling domain) submits unique rotation targets to a
    [Planner] pool of up to [jobs] domains, and splices the words back
    strictly in input order from a reorder FIFO of 4,096 slots.  The
    FIFO is the one bound on work in flight: every queued job has an
    occurrence waiting in it, so parsing runs at most 4,096 output
    slots ahead.  When it is full and its head has not landed, and in
    the final drain, the producer runs queued jobs itself instead of
    blocking.  A warm-memo rerun submits no job and starts no worker.
    A job's result is dropped when the last occurrence waiting for it
    is emitted, so a run holds O(window + depth) results, whatever the
    number of distinct rotations.

    Output is byte-identical whatever [jobs] is, and identical to
    {!run_circuit} on the same input: per-key synthesis is
    deterministic, occurrences emit in input order, and the memo is
    touched only on the producer in emission order.  The ledger gets one
    record per rotation occurrence: a fresh one per chain execution, a
    [cached] replay for every other occurrence. *)

(** {1 Keys} *)

val canonical_angle : float -> float
(** The angle identity under which rotations are memoized and deduped:
    [Basis.norm_angle] (wrap into (−π, π], snap π/4 multiples) with
    −0.0 mapped to 0.0.  Synthesis targets are built from the canonical
    angle too, so rz(θ) and rz(θ+2π) share one synthesis and one memo
    cell. *)

val rz_key : epsilon:float -> tag:string -> gate_set:string -> float -> string
(** The memo/dedup key of an Rz target: canonical angle (printed by
    [Store.target_id]), ε (printed exactly, ["%h"]), the
    {!policy}'s tag, gate set.

    How far a served word may sit from its target: angles share a cell
    when they print equal under ["%.10f"], so they differ by less than
    10⁻¹⁰.  The word was verified against the target of the cell's
    first occurrence; against any other occurrence's canonical target
    its distance ([Mat2.distance], a metric) exceeds the reported one by
    at most half the angle difference, < 5·10⁻¹¹.  ε values share a
    cell only when they are the same double. *)

val u3_key :
  epsilon:float -> tag:string -> gate_set:string -> float * float * float -> string
(** As {!rz_key} for a U3 target (canonical angle triple).  A served
    word exceeds its reported distance by at most half the summed angle
    differences, < 1.5·10⁻¹⁰. *)

(** {1 Runs} *)

type config = {
  epsilon : float;  (** per-rotation threshold *)
  gate_set : Gateset.t;
  ir : Settings.ir;  (** Rz (phase-folding window) or U3 (fusion window) *)
  window : int;  (** W — max gates held by the sliding optimizer *)
  jobs : int;  (** max domains; 1 = synthesize on the producer *)
  deadline : Obs.Deadline.t;
  rotation_budget : float option;  (** per-job seconds *)
  chain : Synth.rung_spec list option;  (** default: by [ir] *)
  trasyn : Trasyn.config;
  budgets : int list;
}

val default_trasyn : Trasyn.config
(** The one TRASYN configuration of every entry point (the circuit
    workflows, [--stream], the server): depth-10 step-0 table, k = 48
    samples, beam 4 (one-site lookups dominate at circuit thresholds). *)

val config :
  ?epsilon:float ->
  ?gate_set:Gateset.t ->
  ?ir:Settings.ir ->
  ?window:int ->
  ?jobs:int ->
  ?deadline:Obs.Deadline.t ->
  ?rotation_budget:float ->
  ?chain:Synth.rung_spec list ->
  ?trasyn:Trasyn.config ->
  ?budgets:int list ->
  unit ->
  config
(** Defaults: ε 0.07, default gate set, Rz IR, window 64, 1 job, no
    deadline, chain by IR ({!policy}), {!default_trasyn} and
    [Synth.default_budgets].
    @raise Invalid_argument on a non-positive or non-finite ε, a
    non-positive window/jobs, or TRASYN settings that
    [Trasyn.check_settings] refuses. *)

(** {1 The synthesis policy} *)

type policy = private {
  ir : Settings.ir;
  chain : Synth.rung_spec list;
      (** [config.chain], else [Synth.rz_chain] (Rz IR) / [Synth.u3_chain] (U3 IR) *)
  synth : Synth.config;  (** what the rungs see: ε, gate set, TRASYN settings, budgets *)
  tag : string;
      (** the keys' tag: the chain id, the TRASYN [table_t], [samples],
          [beam], [post_process] and [seed], and the budgets.  Not the
          deadline or the per-rotation budget: a word that a timeout
          degraded is memoized like any other. *)
}

val policy : config -> policy
(** How a config's rotations are synthesized: the one decision, for the
    engine, {!synthesize} and the server alike.  Build it once per run. *)

type resolved = {
  key : string;  (** {!rz_key} / {!u3_key} under the policy's tag *)
  target : Synth.target;  (** at the canonical angle(s) *)
  exact : Robust.attempt option;
      (** a ≤1-T rotation's exact word: backend ["exact"], no fallback,
          its distance to [target], [rung_epsilon] = ε *)
}

val resolve : policy -> Qgate.t -> (resolved, Robust.failure) result
(** The one place a rotation gate becomes its exact word or a synthesis
    job, for the engine (per distinct gate of a run), {!synthesize}
    (hence [Pipeline.gridsynth_rz_attempt]) and the server.  An Rz is
    keyed by {!rz_key} and targeted as [Rz] at its canonical angle, any
    other rotation by {!u3_key} and [Unitary] at the canonical angles of
    its U3 form.  A gate [Circuit.exact_word] finds in the gate set's
    step-0 table ([Ma_table.get_for] at depth 1) is answered with that
    word.  [Backend_error]: a non-Rz rotation to synthesize under an
    Rz-IR policy ("non-Rz"). *)

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
  peak_heap_words : int;  (** process peak heap (obs.heap.peak_words) *)
}

val run :
  config ->
  next:(unit -> Circuit.instr option) ->
  emit:(Circuit.instr -> unit) ->
  (stats, Robust.failure) result
(** Drive the engine through the window: pull from [next] until
    [None], push every output instruction to [emit] (in order,
    incrementally).  On a synthesis failure the run aborts with the
    structured failure; [emit]ed prefixes are valid output of the
    prefix consumed. *)

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
(** The in-memory reference path: {!run} fed the whole circuit as one
    batch.  Streamed output must be bit-identical to this. *)

val run_ir :
  ?on_degraded:(Qgate.t -> Robust.attempt -> unit) ->
  config ->
  Circuit.t ->
  (Circuit.t * stats, Robust.failure) result
(** The engine over an IR circuit with no window: every rotation is
    synthesized as it stands ([window] is unused).  [on_degraded] sees
    each degraded occurrence (its IR gate and attempt) in emission
    order.  A non-Rz rotation in the Rz IR is a [Backend_error] naming
    "non-Rz". *)

val synthesize : config -> Qgate.t -> (Robust.attempt, Robust.failure) result
(** One rotation outside any run, resolved as a run would resolve it
    ({!resolve}): a ≤1-T rotation gets its exact word (backend
    ["exact"]) with no chain run, memo cell or ledger record; any other
    is served from the memo or synthesized on this domain and memoized.
    Failures are never memoized, since a timeout is relative to the
    caller's deadline. *)

(** {1 The memo} *)

val set_cache_capacity : int -> unit
(** Bound the memo and each run's resolution table (default 65536
    entries each); a full table is flushed wholesale on the next insert
    (counted in [pipeline.cache.evictions]).
    @raise Invalid_argument when < 1. *)

val clear_cache : unit -> unit
(** Empty the memo (for cache-cold measurements and order-independent
    tests).  Hits and misses are counted as
    [pipeline.gridsynth_cache.hit]/[.miss] in the Rz IR and
    [pipeline.trasyn_cache.hit]/[.miss] in the U3 IR: a hit once per
    occurrence the memo already held, a miss once per job. *)
