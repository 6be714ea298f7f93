(** End-to-end FTQC compilation workflows (Figure 3(a) of the paper):
    transpile to an intermediate representation, then synthesize every
    nontrivial rotation into Clifford+T.

    The U3 workflow pairs the U3 IR (which merges adjacent rotations)
    with TRASYN; the Rz workflow pairs the Rz IR with GRIDSYNTH — the
    comparison at the heart of RQ2/RQ3/RQ4.

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
    Solovay–Kitaev, and deadlines propagate to every rung.  The
    direct-style entry points raise {!Robust.Failure_exn} when a
    rotation cannot be synthesized at all; the [_result] variants
    return the structured failure instead. *)

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

val run_gridsynth :
  ?epsilon:float ->
  ?gate_set:Gateset.t ->
  ?deadline:Obs.Deadline.t ->
  ?rotation_budget:float ->
  ?transpile:bool ->
  ?jobs:int ->
  ?chain:Synth.rung_spec list ->
  Circuit.t ->
  synthesized
(** Rz IR + GRIDSYNTH-first chain at [epsilon] (default 0.07) per
    rotation; trivial (π/4-multiple) rotations are replaced by exact
    words.  [deadline] (absolute, monotonic clock) bounds the whole
    run; [rotation_budget] (seconds) additionally bounds each
    synthesis job.  [transpile:false] skips transpilation and treats
    the input as Rz IR directly — a non-Rz rotation then surfaces as a
    [Backend_error].  [jobs] is the domain count (default
    [Domain.recommended_domain_count ()]); [chain] overrides the
    default [Synth.rz_chain] (e.g. from [Synth.parse_chain]) and its
    TRASYN rungs run [Stream_compile.default_trasyn], as under
    [--stream]; memo keys carry the policy's tag and the gate set, so
    words of different chains, TRASYN settings, budgets or alphabets
    never mix.
    [gate_set] (default [Gateset.default]) selects the alphabet: it
    keys the store and ledger, filters chain rungs to supporting
    backends, and picks the step-0 table (non-built-in sets need one
    provided via [Tablegen.load_and_provide]).
    @raise Robust.Failure_exn when a rotation cannot be synthesized. *)

val run_gridsynth_result :
  ?epsilon:float ->
  ?gate_set:Gateset.t ->
  ?deadline:Obs.Deadline.t ->
  ?rotation_budget:float ->
  ?transpile:bool ->
  ?jobs:int ->
  ?chain:Synth.rung_spec list ->
  Circuit.t ->
  (synthesized, Robust.failure) result
(** As {!run_gridsynth}, returning the structured failure. *)

val gridsynth_rz_attempt :
  ?deadline:Obs.Deadline.t ->
  ?rotation_budget:float ->
  epsilon:float ->
  float ->
  (Robust.attempt, Robust.failure) result
(** The word-level entry point of the Rz workflow: Rz(θ) at [epsilon]
    through [Stream_compile.synthesize].  A ≤1-T rotation (e.g. π/4,
    3π/4) gets its exact word (backend ["exact"]) with no chain run,
    memo cell or ledger record, as in the engine and the server; any
    other the guard-verified {!Robust.attempt}, memoized on success
    (never on failure) in cells shared with default-chain
    {!run_gridsynth} runs at the same [epsilon]. *)

val clear_caches : unit -> unit
(** Empty the engine's memo ([Stream_compile.clear_cache]) and TRASYN's
    canonicalized-chain cache ({!Trasyn.clear_chain_cache}).  Use
    between unrelated runs, or to make timing measurements cache-cold.
    The memo's capacity is set by [Stream_compile.set_cache_capacity]. *)

val run_trasyn :
  ?epsilon:float ->
  ?gate_set:Gateset.t ->
  ?config:Trasyn.config ->
  ?budgets:int list ->
  ?deadline:Obs.Deadline.t ->
  ?rotation_budget:float ->
  ?transpile:bool ->
  ?jobs:int ->
  ?chain:Synth.rung_spec list ->
  Circuit.t ->
  synthesized
(** U3 IR + TRASYN-first chain in Eq. (4) mode at [epsilon] (default
    0.07), with the same deadline and domain semantics as
    {!run_gridsynth}.  [config] defaults to
    [Stream_compile.default_trasyn], [budgets] to
    [Synth.default_budgets].
    @raise Robust.Failure_exn when a rotation cannot be synthesized. *)

val run_trasyn_result :
  ?epsilon:float ->
  ?gate_set:Gateset.t ->
  ?config:Trasyn.config ->
  ?budgets:int list ->
  ?deadline:Obs.Deadline.t ->
  ?rotation_budget:float ->
  ?transpile:bool ->
  ?jobs:int ->
  ?chain:Synth.rung_spec list ->
  Circuit.t ->
  (synthesized, Robust.failure) result
(** As {!run_trasyn}, returning the structured failure. *)

type comparison = {
  name : string;
  trasyn : synthesized;
  gridsynth : synthesized;
  t_ratio : float;  (** gridsynth T count / trasyn T count; > 1 = TRASYN wins *)
  t_depth_ratio : float;
  clifford_ratio : float;
}

val compare_workflows :
  ?epsilon:float ->
  ?gate_set:Gateset.t ->
  ?config:Trasyn.config ->
  ?budgets:int list ->
  ?deadline:Obs.Deadline.t ->
  ?rotation_budget:float ->
  ?jobs:int ->
  ?chain:Synth.rung_spec list ->
  name:string ->
  Circuit.t ->
  comparison
(** Run both workflows on one circuit.  Following §4.2, GRIDSYNTH's
    per-rotation threshold is [epsilon] scaled by the U3:Rz rotation
    ratio so both workflows land at comparable circuit-level error.
    [deadline] is absolute and shared across both passes;
    [rotation_budget] bounds each rotation in either pass; [jobs] and
    [chain] apply to both.
    @raise Robust.Failure_exn when either workflow fails outright. *)

val scaled_gridsynth_epsilon : epsilon:float -> u3_rotations:int -> rz_rotations:int -> float
(** The §4.2 threshold scaling rule, exposed for tests. *)
