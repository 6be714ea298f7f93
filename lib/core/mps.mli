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

    One path makes an MPS of two or more sites: {!canonical_chain}
    builds and canonicalizes the target-independent sites once, and
    {!instantiate} grafts a target onto them.  A one-site MPS is just the
    vector of trace values over a prefix of the table, and {!one_site}
    samples it from the table's planes without building one.  All hot-path kernels (fills from the table's
    planes, the LQ sweep, the batched sampler) operate directly on the
    flat float planes with small preallocated scratch: no per-element
    boxing, per-sample allocation is O(k) words total.  Every interior
    site (2..l) carries two target-independent trees, built with its
    chain: a sum tree of block Grams that routes draws to their
    operators in O(m·log n), and, on the last site, a cone tree that
    finds maxima by exact branch-and-bound (see {!sample}). *)

type site = {
  dl : int;  (** left bond dimension *)
  dr : int;  (** right bond dimension *)
  n : int;  (** physical dimension: the table's first [n] entries *)
  re : float array;
  im : float array;
}

type trees
(** The tree indices of one interior site: a sum tree over contiguous
    blocks of 16 physical indices, plus a cone tree on the last site.
    Immutable once built. *)

type t = {
  sites : site array;
  target : Mat2.t;
  trees : trees array;  (** site i's at [i − 1] *)
  table : Ma_table.t;  (** the step-0 table every site indexes *)
}

type sample = {
  indices : int array;  (** one physical index per site *)
  amplitude : Cplx.t;  (** Tr(U†·∏ M[sᵢ]) *)
  multiplicity : int;  (** how many of the k draws landed here *)
}

val site_get : site -> int -> int -> int -> Cplx.t
(** [site_get s phys a b] — tensor entry at physical index [phys], left
    bond [a], right bond [b]. *)

val trace_of_indices : t -> int array -> Cplx.t
(** Tr(U†·∏ M[sᵢ]) of one index tuple, from the table's matrices
    (tests, verification). *)

val right_canonical_error : site -> float
(** ‖Σ_s A[s]A[s]† − I‖_F — zero (to float precision) on sites
    1..l−1 of an instantiated MPS. *)

(** {1 Reusable canonicalized chains}

    Only the first site of the MPS depends on the target (it folds in
    U†; the target's second matrix dimension rides along a δ-line, the
    paper's "loop cut"); sites 2..l are [M⊗δ] tensors of the table
    alone, and the right-to-left sweep reaches the first site last.  A
    {!chain} captures everything target-independent — the table, the
    canonicalized interior, and the boundary L factor from the sweep's
    final LQ — so synthesizing against a new target only fills one
    fresh first site and absorbs the saved boundary.

    The interior sites and their trees are {e shared} between the chain
    and every MPS it instantiates: they are read-only after
    {!canonical_chain} returns (sampling and beam search only read site
    tensors and trees, with per-call scratch), which is what makes one
    chain safe to reuse concurrently from many domains. *)

type chain = {
  table : Ma_table.t;
  n0 : int;  (** site 0's physical dimension *)
  interior : site array;  (** canonicalized sites 1..l−1 *)
  bl_re : float array;  (** boundary L from site 1's LQ (row-major, bl_d×bl_d) *)
  bl_im : float array;
  bl_d : int;  (** boundary dimension *)
  chain_trees : trees array;  (** site i's at [i − 1] *)
}

val canonical_chain : Ma_table.t -> int array -> chain
(** [canonical_chain table caps]: one site per cap, site i over the
    table's first [Ma_table.offset table (caps.(i) + 1)] entries (T
    count ≤ [caps.(i)]).  Builds and canonicalizes the
    target-independent part of the MPS once, and builds the interior
    sites' trees, all under [mps.chain_build].
    @raise Invalid_argument on fewer than two sites (one site is
    {!one_site}'s), or on a cap below 0 or above [Ma_table.max_t table]. *)

val instantiate : target:Mat2.t -> chain -> t
(** Graft a target-folded first site onto the shared interior, under
    [mps.instantiate].  The result is fully canonicalized: sites 1..l−1
    are right-isometric, and site 0 holds the norm. *)

(** {1 Sampling} *)

val default_rng_seed : int
(** Seed behind [sample]'s default rng: callers that do not pass [~rng]
    get reproducible draws. *)

val sample : ?rng:Random.State.t -> ?argmax_last:bool -> t -> k:int -> sample list
(** Draw [k] sequences from the Born distribution of the canonicalized
    MPS in one batched pass: all draws advance through the chain
    together as distinct prefixes with multiplicities.  With
    [argmax_last] (default), each distinct sampled prefix also
    contributes the best completion of the final site — the
    conditional weights there are exactly the per-sequence trace
    values.  Without [~rng], draws come from a fixed-seed state
    ({!default_rng_seed}).

    {b Cost.}  The first site (one prefix) is scanned: O(n).  At an
    interior site a prefix of multiplicity m descends the sum tree with
    its sorted uniforms, O(min(m·log n, n)) node and leaf visits, and
    its [argmax_last] completion is a branch-and-bound over the cone
    tree (tens of nodes per query on depth-8 tables, O(n) only in
    degenerate cases such as w = 0).  The [mps.sample.tree_nodes] and
    [mps.sample.tree_leaves] counters record the visits, once per call.

    {b Exactness.}  Leaves evaluate weights with the scan's arithmetic,
    and the cone bound is rigorous with outward rounding, so maxima
    (lowest index on ties) and children (grouped by ascending physical
    index) are those of the linear scan.  Draws equal the scan's
    except for a uniform within float rounding of a block's cumulative
    weight: one left over at a block's end goes to the block's last
    nonzero-weight index (with none there, to the site's last), and is
    counted in [mps.sample.boundary_draws]. *)

val beam_search : t -> beam:int -> sample list
(** Deterministic alternative: keep the [beam] highest-weight partial
    sequences at every site (the greedy ablation), selected under the
    total order weight descending, then parent, then physical index.
    The first and middle sites are scanned, O(n) per partial; the last
    site offers each partial's children by branch-and-bound over its
    cone tree against the beam's current last weight.  The result is
    the scan's. *)

(** {1 One site} *)

val one_site :
  ?rng:Random.State.t ->
  Ma_table.t ->
  target:Mat2.t ->
  cap:int ->
  k:int ->
  beam:int ->
  sample list * sample list
(** [one_site table ~target ~cap ~k ~beam]: the draws and the beam of
    the one-site MPS over the table's first
    [Ma_table.offset table (cap + 1)] entries, whose tensor is the trace
    value Tr(U†M[s]) of each.  The result is bit for bit what {!sample}
    (with [argmax_last]) and {!beam_search} returned for that MPS:
    indices, multiplicities, amplitudes and order.  Draws come from
    [rng] ({!default_rng_seed} without it) and are counted in
    [mps.samples_drawn]; the call runs under [mps.one_site].

    {b Cost.}  Two passes over the entries, with no O(n) array: the
    first sums the Born weights and keeps the argmax (lowest index on
    ties) and the [beam] heaviest entries (weight descending, then
    index); the second routes the k sorted uniforms by the running sum
    and stops once every one is placed.  Uniforms left over at the end
    go to the last nonzero weight, and the argmax is appended with
    multiplicity 1 unless a draw landed on it.  Only the uniforms take
    O(k) words.
    @raise Invalid_argument on a cap below 0 or above
    [Ma_table.max_t table]. *)

(** {1 Tree internals (tests)} *)

val cone_node_bounds : t -> w_re:float array -> w_im:float array -> (float * int array) array
(** For the last site and prefix vector w (4 entries), every cone-tree
    node's bound on |w·a_s|² with the physical indices below it. *)

val cone_argmax_of : t -> w_re:float array -> w_im:float array -> int
(** The last site's [argmax_last] completion for prefix vector w, by
    the cone-tree search. *)
