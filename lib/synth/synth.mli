(** The synthesis backends and the chains that run them: every
    per-rotation synthesis in the compiler goes through here.

    The four concrete engines (TRASYN, GRIDSYNTH, SYNTHETIQ,
    Solovay–Kitaev) are {!backend} values in a constant list ({!find} /
    {!all}), so the pipeline, the CLIs, and the benches never name a
    backend module — they name backends, and a [--backend-chain trasyn,gridsynth,sk]
    flag can rebuild any ladder at run time ({!parse_chain}).

    Fallback ladders are plain data: a chain is a [rung_spec list]
    (backend + per-rung ε policy + config tweak) that {!run_chain} runs
    itself; {!u3_chain} and {!rz_chain} are the standard ladders.
    {!ledger_record} is the one constructor of [Ledger] records,
    whoever writes them. *)

(** {1 Targets} *)

type target = Rz of float | Unitary of Mat2.t

val target_mat2 : target -> Mat2.t

(** {1 Per-call configuration} *)

type config = {
  epsilon : float;  (** requested unitary-distance threshold *)
  deadline : Obs.Deadline.t;
  gate_set : Gateset.t;
      (** active alphabet: keys store lookups/writes and ledger
          provenance, selects the TRASYN step-0 table, and filters
          chain rungs to backends that support it *)
  trasyn : Trasyn.config;
  trasyn_budgets : int list;  (** per-MPS-site T budgets *)
  trasyn_attempts : int;  (** reseeded tries per budget prefix *)
  gs_max_extra_n : int option;  (** [None] = backend default *)
  gs_candidates_per_n : int option;
  synthetiq_seconds : float;  (** anneal wall budget (tightened by [deadline]) *)
  synthetiq_seed : int;
  sk_max_depth : int option;
}

val default_budgets : int list
(** [\[10; 10; 8\]] — the standard ladder's TRASYN budgets. *)

val config :
  ?deadline:Obs.Deadline.t ->
  ?gate_set:Gateset.t ->
  ?trasyn:Trasyn.config ->
  ?budgets:int list ->
  epsilon:float ->
  unit ->
  config
(** Smart constructor with the standard defaults (no deadline,
    [Gateset.default], [Trasyn.default_config], {!default_budgets},
    1 attempt, backend-default gridsynth search, 10 s / seed 0
    synthetiq, default SK escalation).  [epsilon] is not checked: 0
    asks for the best word within the budgets.
    @raise Invalid_argument on the TRASYN settings that
    [Trasyn.check_settings] refuses. *)

val gate_set_name : config -> string
(** [config.gate_set.Gateset.name]. *)

(** {1 Backends} *)

type backend = {
  name : string;  (** lookup key, counter suffix, fault-injection key *)
  supports_gate_set : string -> bool;
      (** Which alphabets the engine can emit words over.  The exact
          -arithmetic engines (gridsynth, synthetiq, sk) are Clifford+T
          -native; trasyn samples whatever step-0 table the gate set
          resolves to ([Ma_table.get_for]). *)
  synthesize : target -> config -> (Ctgate.t list * float, Robust.failure) result;
      (** Produce (word, claimed distance) or a structured failure, never
          an exception: the built-in adapters turn their engine's
          exceptions into [Backend_error].  The claim is {e not} trusted:
          {!run_chain} re-verifies every word through [Robust.verify]
          before accepting it.  GRIDSYNTH serves a [Unitary] target
          through the Eq. (1) Euler-angle decomposition (three Rz
          syntheses at ε/3). *)
}

(** {1 The backends} *)

val find : string -> backend option

val find_exn : string -> backend
(** @raise Invalid_argument on an unknown name, listing the known ones. *)

val all : unit -> backend list
(** The four built-ins, in order: [trasyn], [gridsynth], [synthetiq],
    [sk]. *)

(** {1 Chains as data} *)

type rung_spec = {
  rung_name : string;  (** counter / fault key; defaults to the backend name *)
  backend : backend;
  eps_scale : float;  (** rung threshold = max(ε·scale, floor) … *)
  eps_floor : float;  (** … so retry rungs can relax and last resorts floor *)
  tweak : config -> config;  (** per-rung config adjustment (reseeds etc.) *)
}

val rung :
  ?name:string -> ?eps_scale:float -> ?eps_floor:float -> ?tweak:(config -> config) ->
  backend -> rung_spec
(** [eps_scale] defaults to 1, [eps_floor] to 0, [tweak] to identity. *)

val chain_id : rung_spec list -> string
(** Comma-joined rung names — the chain's cache-key fingerprint. *)

val u3_chain : rung_spec list
(** TRASYN → reseeded TRASYN retry (doubled samples) → GRIDSYNTH
    (Eq. (1) decomposition at ε) → Solovay–Kitaev last resort at a
    relaxed threshold (max ε 0.45 — always lands, may be degraded). *)

val rz_chain : unit -> rung_spec list
(** GRIDSYNTH → GRIDSYNTH retry at 2ε with a deeper candidate search →
    TRASYN (threshold floored at 0.01, the sampled search's reliable
    range) → Solovay–Kitaev last resort. *)

val parse_chain : string -> (rung_spec list, string) result
(** Parse a [--backend-chain] value: comma-separated backend names,
    e.g. ["trasyn,gridsynth,sk"].  Each name becomes a plain rung at
    the chain ε (an [sk] entry keeps its 0.45 floor so hand-built
    chains still land).  [Error] names the unknown backend and lists
    the known ones. *)

(** {1 Persistent store hookup} *)

val set_store : Store.t option -> unit
(** Arm (or disarm) the process-wide persistent synthesis store.  With
    a store armed, {!run_chain} consults it before executing any rung —
    a stored word with verified distance ≤ ε is served directly
    (["synth.store.hit"], ledger record with [cached = true] and
    [source = "store"], zero fallbacks) — and writes every fresh
    guard-verified word back with {!Store.put} (unless the store is
    read-only or degraded). *)

val store : unit -> Store.t option

(** {1 Running a chain} *)

val target_id : target -> string
(** Canonical provenance id: [Store.target_id] of the target (a
    [Unitary] via its Euler decomposition) — what {!run_chain} writes
    into [Ledger] records and the server into its ["target"] field. *)

val failure_tag : Robust.failure -> string
(** Short stable tag ("timeout", "budget_exhausted", ...) used in
    ledger records; the human-readable form stays
    [Robust.failure_to_string]. *)

val run_chain :
  ?deadline:Obs.Deadline.t ->
  config:config ->
  rung_spec list ->
  target ->
  (Robust.attempt, Robust.failure) result
(** Run the chain: the first rung whose guard-verified
    ([Robust.verify]) word meets its threshold max(ε·scale, floor)
    wins.  Rungs whose backend does not support [config.gate_set] are
    skipped; an empty chain, or one with no usable rung, fails with a
    [Backend_error] naming "no backend in chain".  The effective
    deadline is the tighter of [deadline] and [config.deadline]; each
    rung sees it in its [config].

    The deadline is checked before each rung, after a stall and after
    each failure: on expiry the chain stops with [Timeout]
    ([robust.deadline.expired]).  Each rung draws [Robust.Fault] under
    its name, keyed ["<target_id>#<execution>"] (the execution index is
    0, then one more per retry of {!run_chain_sourced}), which may stall
    it, fail it or corrupt its word ([robust.faults.injected]).  Rungs after the first count as
    [robust.retries], a winner after the first as
    [robust.fallback.<rung>]; when every rung fails the chain reports
    the last rung's failure ([robust.chain.failed]).

    Every call bumps ["synth.rotations"], and when the provenance
    ledger is armed ([Ledger.enabled]) appends one {!ledger_record} —
    success or failure — with source ["fresh"] (["store"] on a store
    hit). *)

val run_chain_sourced :
  ?deadline:Obs.Deadline.t ->
  ?retry:(Robust.failure -> bool) ->
  config:config ->
  rung_spec list ->
  target ->
  (Robust.attempt * [ `Store | `Fresh ], Robust.failure * int) result
(** {!run_chain}, additionally reporting whether the word was served
    from the persistent store or freshly synthesized — what the batch
    server stamps into its responses — and with a failure the number of
    rungs its execution ran (0 when the deadline expired before the
    first).  [retry f] (default: never) is asked after each failed
    execution; while it answers [true] the chain runs again, store
    consult included.  Every execution bumps ["synth.rotations"], but
    only the final one writes a ledger record, so a retried rotation
    has one. *)

val ledger_record :
  ?request_id:string ->
  config:config ->
  rung_spec list ->
  target ->
  source:[ `Fresh | `Replay | `Store ] ->
  wall_s:float ->
  (Robust.attempt, Robust.failure * int) result ->
  Ledger.record
(** The ledger record of one rotation served under [config] by the
    chain, from a chain execution ([`Fresh]), another occurrence's
    execution or the memo ([`Replay], [cached]) or the store
    ([`Store], [cached], no rung run: [attempts] 0).  On success it
    carries the attempt's rung ε, verified distance, backend, fallback
    depth, T-count and word length; [degraded] when a fallback was
    taken or the distance is above a positive requested ε (ε = 0 asks
    for the best word within budget).  On failure — which carries the
    number of rungs its execution ran — [rung_eps] and [distance] are
    [nan], the backend is ["failed"], [attempts] is that number and
    [fallbacks] one less (0 when none ran); a replay of a failure passes
    its execution's number.  [request_id] defaults to [""], which
    [Ledger.record] stamps from the ambient request context.  A direct
    backend call records itself as a one-rung chain. *)
