(** The tensor-network engine of TRASYN (steps 1 and 2).

    The exponentially large tensor of trace values
    Tr(U†·M₁[s₁]⋯M_l[s_l]) is represented as an MPS with bond dimension
    ≤ 4.  Site i ranges over a prefix of the step-0 table, the operators
    with at most its T cap, so a physical index is a table index.  A
    right-to-left orthogonalization sweep brings the MPS to canonical
    form, after which index tuples (gate sequences) are sampled from
    p ∝ |trace|² via the chain rule, each conditional computed locally.
    Every sample's trace value falls out of the final contraction for
    free — the "error-aware" property the paper leans on.

    One path serves every number of sites: {!canonical_chain} builds
    and canonicalizes the target-independent sites once, and {!sample}
    draws from the chain for a target, reading site 0 — the only site
    that depends on the target — straight from the table's planes.  All
    hot-path kernels (fills from the table's planes, the LQ sweep, the
    batched sampler) operate directly on the flat float planes with
    small preallocated scratch: no per-element boxing, per-sample
    allocation is O(k) words total.  Every interior site (2..l) carries
    two target-independent trees, built with its chain: a sum tree of
    block Grams that routes draws to their operators in O(m·log n), and,
    on the last site, a cone tree that finds maxima by exact
    branch-and-bound (see {!sample}). *)

type site = {
  dl : int;  (** left bond dimension *)
  dr : int;  (** right bond dimension *)
  n : int;  (** physical dimension: the table's first [n] entries *)
  re : float array;  (** (s·dl + a)·dr + b, row-major per physical index *)
  im : float array;
}

type trees
(** The tree indices of one interior site: a sum tree over contiguous
    blocks of 16 physical indices, plus a cone tree on the last site.
    Immutable once built. *)

type sample = {
  indices : int array;  (** one physical index per site *)
  amplitude : Cplx.t;  (** Tr(U†·∏ M[sᵢ]) *)
  multiplicity : int;  (** how many of the k draws landed here *)
}

(** {1 Reusable canonicalized chains}

    Only the first site of the MPS depends on the target (it folds in
    U†; the target's second matrix dimension rides along a δ-line, the
    paper's "loop cut"); sites 2..l are [M⊗δ] tensors of the table
    alone, and the right-to-left sweep reaches the first site last.  A
    {!chain} captures everything target-independent — the table, the
    canonicalized interior, and the boundary L factor from the sweep's
    final LQ — so a target costs only site 0's entries, which {!sample}
    computes from the table's planes with the boundary absorbed.

    A chain is read-only after {!canonical_chain} returns (sampling
    reads site tensors and trees, with per-call scratch), which is what
    makes one chain safe to reuse concurrently from many domains. *)

type chain = {
  table : Ma_table.t;
  n0 : int;  (** site 0's physical dimension *)
  interior : site array;  (** canonicalized sites 1..l−1; empty with one site *)
  bl_re : float array;  (** boundary L from site 1's LQ (row-major, 4×4) *)
  bl_im : float array;
  chain_trees : trees array;  (** site i's at [i − 1] *)
}

val canonical_chain : Ma_table.t -> int array -> chain
(** [canonical_chain table caps]: one site per cap, site i over the
    table's first [Ma_table.offset table (caps.(i) + 1)] entries (T
    count ≤ [caps.(i)]).  Builds and canonicalizes the
    target-independent part of the MPS once, and builds the interior
    sites' trees, all under [mps.chain_build].  With one cap there is
    nothing to build: the chain is the table prefix.
    @raise Invalid_argument on no cap, or on a cap below 0 or above
    [Ma_table.max_t table]. *)

(** {1 Sampling} *)

val default_rng_seed : int
(** Seed behind [sample]'s default rng: callers that do not pass [~rng]
    get reproducible draws. *)

val sample :
  ?rng:Random.State.t ->
  ?argmax_last:bool ->
  chain ->
  target:Mat2.t ->
  k:int ->
  beam:int ->
  sample list * sample list
(** [sample chain ~target ~k ~beam]: the draws and the beam of the MPS
    for [target] over [chain], under [mps.sample].

    The draws are [k] sequences from the Born distribution, drawn in
    one batched pass: all draws advance through the chain together as
    distinct prefixes with multiplicities, counted in
    [mps.samples_drawn].  With [argmax_last] (default), each distinct
    prefix of the last site also contributes that site's best
    completion with multiplicity 1 unless a draw landed on it — the
    conditional weights there are exactly the per-sequence trace
    values.  Draws come from [rng] ({!default_rng_seed} without it).

    The beam is the deterministic alternative: the [beam] highest-weight
    partial sequences kept at every site (the greedy ablation), in the
    total order weight descending, then parent, then physical index.
    With two or more sites its levels past site 0 run under
    [mps.beam_search].

    {b Cost.}  Site 0 is two passes over its entries, each recomputed
    from the table's planes with no O(n) array: the first sums the Born
    weights and keeps the last nonzero weight, the argmax (lowest index
    on ties; used when site 0 is the last site) and the level-0 beam;
    the second routes the k sorted uniforms by the running sum and
    stops once every one is placed.  At an interior site a prefix of
    multiplicity m descends the sum tree with its sorted uniforms,
    O(min(m·log n, n)) node and leaf visits, and its [argmax_last]
    completion is a branch-and-bound over the cone tree (tens of nodes
    per query on depth-8 tables, O(n) only in degenerate cases such as
    w = 0).  The [mps.sample.tree_nodes] and [mps.sample.tree_leaves]
    counters record the draws' visits, once per call.  The beam scans
    each partial's children at a middle site, O(n) per partial, and
    offers them by branch-and-bound over the cone tree on the last.
    With one site only the k uniforms take O(k) words.

    {b Exactness.}  The result is bit for bit what filling site 0,
    absorbing the boundary and scanning every site gave: indices,
    multiplicities, amplitudes and order.  Leaves evaluate weights with
    the scan's arithmetic, and the cone bound is rigorous with outward
    rounding, so maxima (lowest index on ties) and children (grouped by
    ascending physical index) are the scan's.  Draws equal the scan's
    except for a uniform within float rounding of a sum-tree block's
    cumulative weight: one left over at a block's end goes to the
    block's last nonzero-weight index (with none there, to the site's
    last), and is counted in [mps.sample.boundary_draws].  At site 0,
    uniforms left over at the end go to its last nonzero weight, as the
    scan's. *)

(** {1 Tree internals (tests)} *)

val cone_node_bounds : chain -> w_re:float array -> w_im:float array -> (float * int array) array
(** For the last site of a chain of two or more sites and prefix
    vector w (4 entries), every cone-tree node's bound on |w·a_s|² with
    the physical indices below it. *)

val cone_argmax_of : chain -> w_re:float array -> w_im:float array -> int
(** The last site's [argmax_last] completion for prefix vector w, by
    the cone-tree search. *)
