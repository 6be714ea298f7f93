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
    on the last site, a cone tree whose cells' neighbourhood lists,
    built on first use, answer maxima with a certificate, and whose
    branch-and-bound answers the rest (see {!sample}). *)

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
    The trees are immutable once built; the cone tree's cells get their
    neighbourhood lists on first use, each published through an
    [Atomic]. *)

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

    After {!canonical_chain} returns, sampling reads a chain's site
    tensors and trees with per-call scratch, and writes only a cell's
    neighbourhood list the first time a prefix reaches it: a
    deterministic list, published through an [Atomic], so two domains
    that build one at once build the same.  That is what makes one chain
    safe to reuse concurrently from many domains. *)

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
    O(min(m·log n, n)) node and leaf visits.  Its [argmax_last]
    completion descends the cone tree greedily to a cell (a maximal
    node of at most 32 operators below the first level with a
    nontrivial cone), scans the cell's neighbourhood list — the leaves
    holding an operator within ρ_cell + h of the cell's axis, h being
    0.6·(π²/n)^(1/3), skipping a leaf whose cone bound is below the
    best weight so far — and keeps the list's best when a bound on every
    operator off the list certifies it; otherwise it runs the
    branch-and-bound over the whole cone tree from that best (O(n) only
    in degenerate cases such as w = 0).  A list is built the first time
    a prefix reaches its cell, once per chain.  The k uniforms are
    sorted by a bucket pass and an insertion sort, O(k) expected.
    Counters, flushed once per call: [mps.sample.tree_nodes] and
    [mps.sample.tree_leaves] count tree work — sum-tree nodes and
    leaves, the argmax's descent and cone bounds, and the leaves its
    branch-and-bound scans; [mps.argmax.list_entries] counts the list
    entries (cone-tree leaves) the argmax examines; and
    [mps.argmax.certified] and [mps.argmax.fallback] count the prefixes
    whose argmax the certificate settled and those that fell back to
    the branch-and-bound.  On depth-8 tables about 90 % are certified.
    The beam scans each partial's children at a middle site, O(n) per
    partial, and offers them by branch-and-bound over the cone tree on
    the last.  With one site only the k uniforms take O(k) words.

    {b Exactness.}  The result is bit for bit what filling site 0,
    absorbing the boundary and scanning every site gave: indices,
    multiplicities, amplitudes and order.  Leaves evaluate weights with
    the scan's arithmetic, and the cone bound is rigorous with outward
    rounding, so maxima (lowest index on ties) and children (grouped by
    ascending physical index) are the scan's.  A certified argmax is
    too: it is the list's largest weight (lowest index on ties), and it
    is strictly above a bound on every operator off the list, which
    assumes nothing about w, so an alphabet that is not Clifford-closed
    only falls back more often.  Draws equal the scan's
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
(** The last site's [argmax_last] completion for prefix vector w, as
    {!sample} finds it (the certified list scan, or the branch-and-bound
    when the certificate fails), with its counters flushed. *)
