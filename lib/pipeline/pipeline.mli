(** End-to-end FTQC compilation workflows (Figure 3(a) of the paper):
    transpile to an intermediate representation, then synthesize every
    nontrivial rotation into Clifford+T.

    The U3 workflow pairs the U3 IR (which merges adjacent rotations)
    with TRASYN; the Rz workflow pairs the Rz IR with GRIDSYNTH — the
    comparison at the heart of RQ2/RQ3/RQ4.

    Synthesis is planned rather than inlined: a workflow scans the IR
    circuit, canonicalizes every rotation angle ({!canonical_angle}),
    serves repeats from the memo cache, and hands the rest to
    [Planner], which dedupes occurrences into unique jobs and executes
    them across [jobs] domains with per-job deadlines; an emission pass
    then splices the words back in circuit order.  The output is
    bit-identical whatever the domain count.

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
(** The angle identity under which rotations are cached and deduped:
    [Basis.norm_angle] (wrap into (−π, π], snap π/4 multiples) with
    −0.0 mapped to 0.0.  Synthesis targets are built from the canonical
    angle too, so rz(θ) and rz(θ+2π) share one synthesis, one cache
    entry, and one planner job. *)

val angle_key : float -> string
(** ["%.10f"] of {!canonical_angle} — the memo/dedup key component. *)

val rz_key : epsilon:float -> tag:string -> gate_set:string -> float -> string
(** Full memo/dedup key of an Rz target: canonical angle, ε, chain tag,
    gate set.  Shared with the streaming engine so both paths dedup
    identically. *)

val u3_key :
  epsilon:float -> tag:string -> gate_set:string -> float * float * float -> string
(** As {!rz_key} for a U3 target (canonical angle triple). *)

val exact_word_of_trivial : ?gate_set:string -> Qgate.t -> Ctgate.t list option
(** The exact Clifford+T word of a trivial rotation (≤1-T operator),
    from the step-0 table; [None] when the gate genuinely needs
    synthesis. *)

val word_to_gates : Ctgate.t list -> Qgate.t list
(** A Clifford+T word (matrix order) as circuit gates (time order). *)

val replay_record :
  chain:string -> gate_set:string -> requested:float -> Synth.target -> Robust.attempt ->
  Ledger.record
(** The [cached] ledger record of a rotation occurrence served by dedup
    or a memo cache rather than by its own chain execution ([wall_s] 0,
    [source] ["replay"]).  Both the planned workflows and the streaming
    engine write one per such occurrence, so a run's ledger holds
    exactly one record per rotation. *)

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
    run; [rotation_budget] (seconds) additionally bounds each planner
    job.  [transpile:false] skips transpilation and treats the input as
    Rz IR directly — a non-Rz rotation then surfaces as a
    [Backend_error].  [jobs] is the planner domain count (default
    [Domain.recommended_domain_count ()]); [chain] overrides the
    default [Synth.rz_chain] (e.g. from [Synth.parse_chain]) — memo
    keys carry the chain id {e and} the gate-set name, so words
    synthesized under different chains or alphabets never mix.
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

val gridsynth_rz_word : epsilon:float -> float -> Ctgate.t list * float
(** The memoized word-level entry point of the Rz workflow: the
    guard-verified Clifford+T word and achieved distance for Rz(θ) at
    [epsilon], served from the gridsynth cache when the canonical angle
    repeats.
    @raise Robust.Failure_exn when the fallback chain fails. *)

val gridsynth_rz_attempt :
  ?deadline:Obs.Deadline.t ->
  ?rotation_budget:float ->
  epsilon:float ->
  float ->
  (Robust.attempt, Robust.failure) result
(** Structured variant of {!gridsynth_rz_word}: the full
    {!Robust.attempt} (word, verified distance, winning backend,
    fallback count).  Successes are cached; failures never are, since
    a timeout is relative to the caller's deadline.  Shares cache
    entries with default-chain {!run_gridsynth} runs at the same
    [epsilon]. *)

val trasyn_u3_attempt :
  ?deadline:Obs.Deadline.t ->
  ?rotation_budget:float ->
  config:Trasyn.config ->
  budgets:int list ->
  epsilon:float ->
  float * float * float ->
  (Robust.attempt, Robust.failure) result
(** U3-workflow counterpart of {!gridsynth_rz_attempt}: the memoized
    default-chain synthesis of U3(θ,φ,λ), keyed on the canonical angle
    triple.  Shares cache entries with default-chain {!run_trasyn}
    runs at the same [epsilon]. *)

val clear_caches : unit -> unit
(** Empty both synthesis memo caches (gridsynth Rz words and TRASYN U3
    words) and TRASYN's canonicalized-chain cache
    ({!Trasyn.clear_chain_cache}).  Use between unrelated runs, or to
    make timing measurements cache-cold.  Hit/miss/eviction counts are exported through {!Obs}
    as [pipeline.gridsynth_cache.hit]/[.miss],
    [pipeline.trasyn_cache.hit]/[.miss], and
    [pipeline.cache.evictions]; a hit counts once per served
    occurrence, a miss once per unique key sent to the planner. *)

val set_cache_capacity : int -> unit
(** Bound each memo cache to that many entries (default 65536); a full
    cache is flushed wholesale on the next insert.
    @raise Invalid_argument when the capacity is < 1. *)

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
    0.07), with the same deadline/planner semantics as
    {!run_gridsynth}.
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
