(** Step 0 of TRASYN: the table of all Clifford+T operators up to global
    phase with at most a given T count, enumerated as Matsumoto–Amano
    normal forms [ε|T](HT|SHT)*·C — provably unique, so the enumeration
    is linear in the output count 24·(3·2^#T − 2) and every sequence is
    T-optimal by construction.  Words share suffixes: an entry's word is
    its first block consed onto the word of an entry with one T fewer,
    so a deep table holds one to three list cells per word, with the
    words and their order unchanged.  Other gate sets' tables come from
    a generic closure ({!get_for}).  Doubles as step 3's lookup table of
    cheaper equivalents.

    The table is flat.  Entries are indices [0 .. size − 1], sorted by T
    count; per entry it keeps its word, its Clifford count, the phase j
    for which ω^j·u is its canonical form, and that canonical key packed
    into two ints at 7 bits per component (the packed range is
    [−64, 63]; the widest component is 7 at depth 10 and 22 at depth
    16), all under one open-addressing index that hashes both ints.  An
    entry keeps 11.8 live words at depth 10.  Its matrix lives in the
    {!planes}, filled on first read. *)

type t

val theoretical_count : int -> int
(** 24·(3·2^m − 2), verified against the enumeration in the tests. *)

val max_depth : int
(** 16: the deepest table whose key width is stated above, at
    4,718,544 entries.  {!build} and {!get_for} refuse a deeper one
    before allocating anything. *)

val build : int -> t
(** The table of depth [max_t], entries ordered by T count, prefix and
    Clifford, under an [Obs] span ["cliffordt.table.build"] with a
    ["max_t"] attribute.  The planes are left unfilled.
    @raise Invalid_argument on a depth below 0 or above {!max_depth},
    or on a depth with a canonical key component outside the packed
    range [−64, 63]. *)

val get_for : gate_set:string -> int -> t
(** The table of the registered gate set [gate_set] ([Gateset.find]) at
    depth [max_t], enumerated on first use and cached per gate set and
    depth: {!build} for [Ma_normal_form]; for [Bfs], the generic
    closure, Dijkstra by non-Clifford count with canonical-unitary
    dedup, under the same span, its count checked against
    {!theoretical_count} when the alphabet is full.  Thread-safe; one
    enumeration per table.  @raise Failure on an unknown gate set.
    @raise Invalid_argument on a depth below 0 or above {!max_depth}. *)

val get : int -> t
(** [get_for ~gate_set:"cliffordt"]. *)

(** {1 Entries} *)

val size : t -> int
val max_t : t -> int

val offset : t -> int -> int
(** [offset t k], k in [0, max_t + 1]: the first index with T count
    ≥ k, so level k is [offset t k .. offset t (k + 1) − 1]. *)

val word : t -> int -> Ctgate.t list
(** The entry's T-optimal word; its product is the entry's operator up
    to phase. *)

val tcount : t -> int -> int
(** T gates in {!word}: the entry's level. *)

val ccount : t -> int -> int
(** Non-Pauli Clifford gates in {!word}. *)

val unitary : t -> int -> Exact_u.t
(** The entry's operator, rebuilt from its key and phase: exactly the
    product the enumeration formed. *)

(** {1 Lookup} *)

val find_key : t -> int array -> int
(** The index of the entry whose canonical key ({!Exact_u.canonical_key})
    is [key], or −1.  A key with a component outside the packed range
    misses. *)

type probe
(** Scratch space for {!find}; one per caller, not shared between
    domains. *)

val probe : unit -> probe

val find : t -> probe -> Exact_u.t -> int
(** The index of the entry equal to [u] up to global phase, or −1,
    without allocating: [u]'s canonical key goes through the probe. *)

(** {1 Matrices} *)

type planes = { re : float array; im : float array }
(** Entry i's matrix row-major at [4i .. 4i + 3] (m00, m01, m10, m11):
    real parts in [re], imaginary in [im]: the floats of
    [Exact_u.to_mat2 (unitary t i)], written by {!Exact_u.mat_into}.
    Read-only. *)

val planes : t -> planes
(** Filled on the first call and published with one
    [Atomic.compare_and_set]; every later call, from any domain,
    returns the same arrays. *)

val mat : t -> int -> Mat2.t
(** Entry i's matrix from the {!planes}. *)

val nearest : t -> Mat2.t -> int * float
(** The index and [Mat2.distance_at] of the first entry at the least
    distance from [m], in one scan of the {!planes}: an entry replaces
    the best so far unless the best's distance is [<=] its own, so a
    NaN distance replaces it too.  [(-1, infinity)] on an empty
    table. *)
