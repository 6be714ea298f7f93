(** TRASYN: tensor-network guided synthesis of arbitrary single-qubit
    unitaries over Clifford+T — the paper's core contribution.

    The search space of gate sequences is represented as a bond-4 MPS of
    trace values ({!Mps}) whose sites range over prefixes of the exact
    step-0 table ({!Ma_table}), one T cap per site; sequences are
    sampled in proportion to |Tr(U†V)|² and post-processed against the
    same table ({!Postprocess}).  {!synthesize} is the one sampling
    entry point; {!to_error} is Algorithm 1's loop around it. *)

type config = {
  table_t : int;  (** step-0 table depth = max T per MPS site (paper: 10) *)
  samples : int;  (** k, number of sampled sequences (paper: 40000) *)
  beam : int;  (** width of the extra deterministic beam pass; 0 disables *)
  post_process : bool;  (** run step 3 peephole resynthesis *)
  seed : int;  (** RNG seed — synthesis is deterministic given a config *)
  gate_set : string;
      (** Which step-0 table the MPS sites range over, resolved through
          [Ma_table.get_for]: a registered gate set's name, its table
          enumerated on first use.  Also keys the chain cache, so two
          alphabets never share interiors.  Default: ["cliffordt"]. *)
}

val default_config : config
(** CPU-friendly defaults: table_t = 8, samples = 1024, beam = 32,
    gate_set = "cliffordt". *)

val clear_chain_cache : unit -> unit
(** Drop every cached canonicalized chain.  Every call samples from a
    process-wide cache of canonicalized target-independent chains keyed
    by [(gate_set, table_t, caps)], one site or more, reused across
    calls (budget escalation, reseeds, repeated targets and domains)
    and observable as [mps.chain_cache.hit] / [.miss] / [.evictions];
    results are bit-identical to a build from scratch.  The cache's
    lock guards only its table: no work that depends on the target runs
    under it.  Safe to call concurrently with synthesis; in-flight
    calls keep their already-acquired chains. *)

type result = {
  seq : Ctgate.t list;  (** the Clifford+T word, in matrix order *)
  distance : float;  (** unitary distance to the target, Eq. (2) *)
  t_count : int;
  clifford_count : int;  (** non-Pauli Cliffords in [seq] *)
  trace_value : float;  (** |Tr(U†V)|/2 of the result *)
  sites : int;  (** number of MPS sites used *)
  samples_used : int;
}

val synthesize :
  ?config:config ->
  ?epsilon:float ->
  ?t_slack:int ->
  target:Mat2.t ->
  budgets:int list ->
  unit ->
  result
(** Solve Eq. (3): minimize the distance to [target] subject to the T
    budget, one entry of [budgets] per MPS site (each site ranges over
    all operators with that many T gates or fewer, capped at
    [config.table_t]).  When [epsilon] is given the selection flips to
    Eq. (4): among sampled solutions meeting the threshold, minimize the
    T count; [t_slack] then allows up to that many extra T gates in
    exchange for lower error.

    Every call draws through {!Mps.sample} from the cached chain of its
    caps, whatever their number; with one budget the chain holds no
    site, and the MPS is the vector of trace values over a table prefix.
    A one-site candidate is a table entry's word, which step 3 never
    rewrites (checked for every entry of the built-in tables, and of a
    sub-alphabet's, in test_gateset), so step 3 runs on multi-site
    candidates only; [config.post_process] still governs those.  The
    samples and the beam are ranked by the distance their amplitudes
    give and the T counts of their entries, and the first 16 in that
    stable order are scored exactly.

    @raise Invalid_argument as {!check_settings}. *)

val check_settings : fn:string -> config -> int list -> unit
(** [check_settings ~fn config budgets] raises [Invalid_argument "fn: …"]
    on the settings {!synthesize} refuses: an empty budget list, a
    negative budget, [config.samples] below 1 or a negative
    [config.beam].  {!to_error}, [Synth.config] and
    [Stream_compile.config] call it too, so such settings fail where
    they enter. *)

val to_error :
  ?config:config ->
  ?attempts:int ->
  ?selection:[ `Best_error | `Min_t ] ->
  ?t_slack:int ->
  target:Mat2.t ->
  budgets:int list ->
  epsilon:float ->
  unit ->
  result
(** Algorithm 1 of the paper: try growing prefixes of [budgets] (and
    [attempts] reseeded tries per prefix) until [epsilon] is met,
    always returning the best solution seen.  [`Best_error] (default,
    paper-faithful) keeps lowering the error within the first
    sufficient budget; [`Min_t] reads Eq. (4) strictly and spends as
    few T gates as possible once the threshold is met.

    @raise Invalid_argument as {!check_settings}, with [fn]
    ["Trasyn.to_error"], before its first attempt. *)

(** {1 Internals (tests)} *)

val stable_top : int -> key:('a -> float array -> unit) -> 'a list -> 'a list
(** [stable_top n ~key items]: the first [n] items of [items] stably
    sorted by their keys, where [key x k] writes x's key into
    [k.(0..2)] and keys compare lexicographically with [Float.compare].
    Kept by bounded insertion in O(n) space, without sorting the rest
    or allocating for an item that does not enter.  {!synthesize} ranks
    its samples with it. *)
