(** End-to-end FTQC compilation workflows (Figure 3(a) of the paper):
    transpile to an intermediate representation, then synthesize every
    nontrivial rotation into Clifford+T.

    The U3 workflow pairs the U3 IR (which merges adjacent rotations)
    with TRASYN; the Rz workflow pairs the Rz IR with GRIDSYNTH — the
    comparison at the heart of RQ2/RQ3/RQ4.  One
    [Stream_compile.config] names a whole run: its [ir] picks the
    workflow, and the rest (ε, gate set, jobs, deadlines, chain, TRASYN
    settings and budgets) means what it means to the engine.

    A workflow is [Settings.best_for] followed by a run of
    [Stream_compile]'s engine over the transpiled IR, with no window:
    the engine keys every rotation ([Stream_compile.rz_key] /
    [u3_key]), serves repeats from its memo, synthesizes the rest
    across [jobs] domains with per-job deadlines, and splices the words
    back in circuit order.  The output is bit-identical whatever the
    domain count.

    Per-rotation synthesis runs a [Synth] chain through [Robust]: each
    word is re-verified against its target before entering the circuit,
    a failing backend falls back down the chain ending in
    Solovay–Kitaev, and deadlines propagate to every rung. *)

type degradation = {
  gate : string;  (** the IR rotation, e.g. ["rz(0.7853981634)"] *)
  backend : string;  (** the rung that finally produced the word *)
  fallbacks : int;  (** rungs that failed before it *)
  achieved : float;  (** guard-verified distance *)
  requested : float;  (** the workflow's per-rotation threshold *)
}
(** One rotation that did not go down the happy path: it needed at
    least one fallback, or its accepted word sits above the requested
    threshold (e.g. a Solovay–Kitaev last resort). *)

type synthesized = {
  circuit : Circuit.t;  (** pure Clifford+T output *)
  transpiled : Circuit.t;  (** the IR circuit before synthesis *)
  setting : Settings.setting;  (** the transpiler setting that won *)
  rotations_synthesized : int;  (** nontrivial rotations sent to synthesis *)
  total_synth_error : float;  (** sum of per-rotation distances (an upper
                                  bound on accumulated synthesis error) *)
  degraded : degradation list;  (** rotations that fell back or overshot;
                                    empty on a fully clean run *)
}

val canonical_angle : float -> float
val rz_key : epsilon:float -> tag:string -> gate_set:string -> float -> string

val u3_key :
  epsilon:float -> tag:string -> gate_set:string -> float * float * float -> string
(** The engine's key definition: [Stream_compile.canonical_angle],
    [rz_key] and [u3_key]. *)

val run :
  ?transpile:bool -> Stream_compile.config -> Circuit.t -> (synthesized, Robust.failure) result
(** The workflow of [cfg.ir], under the span [pipeline.run_gridsynth]
    or [pipeline.run_trasyn]: the Rz IR with the GRIDSYNTH-first chain
    ([Synth.rz_chain]), or the U3 IR with the TRASYN-first chain in
    Eq. (4) mode ([Synth.u3_chain]), at [cfg.epsilon] per rotation.
    Trivial (≤1-T) rotations get exact words.  The fields apply as in
    the engine, except [window]:
    - [chain] overrides the IR's chain (e.g. from [Synth.parse_chain]);
      TRASYN rungs run [trasyn] with [budgets].  Memo keys carry the
      policy's tag and the gate set, so words of different chains,
      TRASYN settings, budgets or alphabets never mix;
    - [deadline] (absolute, monotonic clock) bounds the whole run and
      [rotation_budget] (seconds) each synthesis job; [jobs] is the
      domain count, and the output is the same at any count;
    - [gate_set] keys the store and ledger, filters chain rungs to
      supporting backends and picks the step-0 table
      ([Ma_table.get_for], enumerated on first use).

    [transpile:false] skips [Settings.best_for] and takes the input as
    IR: a non-Rz rotation in the Rz IR is then a [Backend_error]. *)

val run_gridsynth_result : ?jobs:int -> Circuit.t -> (synthesized, Robust.failure) result
(** [run (Stream_compile.config ?jobs ())]: the Rz workflow at ε 0.07,
    on 1 domain unless [jobs] says otherwise.  It exists because
    [perfbench/bench.ml] calls it (with [~jobs:1]). *)

val gridsynth_rz_attempt : epsilon:float -> float -> (Robust.attempt, Robust.failure) result
(** The word-level entry point of the Rz workflow: Rz(θ) at [epsilon]
    through [Stream_compile.synthesize].  A ≤1-T rotation (e.g. π/4,
    3π/4) gets its exact word (backend ["exact"]) with no chain run,
    memo cell or ledger record, as in the engine and the server; any
    other the guard-verified {!Robust.attempt}, memoized on success
    (never on failure) in cells shared with default-chain Rz-IR {!run}s
    at the same [epsilon]. *)

val clear_caches : unit -> unit
(** Empty the engine's memo ([Stream_compile.clear_cache]) and TRASYN's
    canonicalized-chain cache ({!Trasyn.clear_chain_cache}).  Use
    between unrelated runs, or to make timing measurements cache-cold.
    The memo's capacity is set by [Stream_compile.set_cache_capacity]. *)

type comparison = {
  name : string;
  trasyn : synthesized;
  gridsynth : synthesized;
  t_ratio : float;  (** gridsynth T count / trasyn T count; > 1 = TRASYN wins *)
  t_depth_ratio : float;
  clifford_ratio : float;
}

val compare_workflows : Stream_compile.config -> name:string -> Circuit.t -> comparison
(** Run [cfg] in both IRs on one circuit ([cfg.ir] is ignored).
    Following §4.2, GRIDSYNTH's per-rotation threshold is [cfg.epsilon]
    scaled by the U3:Rz rotation ratio, so both workflows land at
    comparable circuit-level error.  The deadline is absolute and shared:
    what the TRASYN pass leaves of it bounds the GRIDSYNTH pass.
    @raise Robust.Failure_exn when either workflow fails outright. *)

val scaled_gridsynth_epsilon : epsilon:float -> u3_rotations:int -> rz_rotations:int -> float
(** The §4.2 threshold scaling rule, exposed for tests. *)
