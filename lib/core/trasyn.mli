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
    process-wide cache of canonicalized target-independent chain
    interiors keyed by [(gate_set, table_t, caps)], reused across
    calls (budget escalation, reseeds, repeated targets) and
    observable as [mps.chain_cache.hit] / [.miss] / [.evictions];
    results are bit-identical to a build from scratch.  Safe to call
    concurrently with synthesis; in-flight calls keep their
    already-acquired chains. *)

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

    @raise Invalid_argument on an empty budget list or a negative
    budget. *)

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
    few T gates as possible once the threshold is met. *)
