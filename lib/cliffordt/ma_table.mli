(** Step 0 of TRASYN: the table of all Clifford+T operators up to global
    phase with at most a given T count, enumerated as Matsumoto–Amano
    normal forms [ε|T](HT|SHT)*·C — provably unique, so the enumeration
    is linear in the output count 24·(3·2^#T − 2) and every sequence is
    T-optimal by construction.  Words share suffixes: an entry's word is
    its first block consed onto the word of an entry with one T fewer,
    so a deep table holds one to three list cells per word, with the
    words and their order unchanged.  Other gate sets' tables come from
    a generic closure ({!get_for}).  Doubles as step 3's lookup table of
    cheaper equivalents. *)

type entry = {
  seq : Ctgate.t list;  (** T-optimal word equal to [u] up to phase *)
  u : Exact_u.t;
  mat : Mat2.t;
  tcount : int;
  ccount : int;  (** non-Pauli Cliffords in [seq] *)
}

type t = {
  max_t : int;
  entries : entry array;  (** sorted by T count *)
  lookup : int Exact_u.Table.t;
  offsets : int array;  (** [offsets.(k)] = first index with tcount ≥ k *)
}

val theoretical_count : int -> int
(** 24·(3·2^m − 2), verified against the enumeration in the tests. *)

val build : int -> t
(** The table of depth [max_t], entries ordered by T count, prefix and
    Clifford, under an [Obs] span ["cliffordt.table.build"] with a
    ["max_t"] attribute. *)

val of_entries : max_t:int -> entry array -> t
(** The lookup/offset structure around an entry array already sorted by
    [tcount] (all ≤ [max_t]) whose operators are distinct up to phase,
    as {!build} yields them.  @raise Invalid_argument on unsorted or
    too-deep entries. *)

val get_for : gate_set:string -> int -> t
(** The table of the registered gate set [gate_set] ([Gateset.find]) at
    depth [max_t], enumerated on first use and cached per gate set and
    depth: {!build} for [Ma_normal_form]; for [Bfs], the generic
    closure, Dijkstra by non-Clifford count with canonical-unitary
    dedup, under the same span, its count checked against
    {!theoretical_count} when the alphabet is full.  Thread-safe; one
    enumeration per table.  @raise Failure on an unknown gate set. *)

val get : int -> t
(** [get_for ~gate_set:"cliffordt"]. *)

val lookup_best : t -> Exact_u.t -> entry option
(** Cheapest known realization of an operator, up to global phase. *)

val entries_in_range : t -> lo:int -> hi:int -> entry array
(** Entries with T count in [lo, hi] (fresh array). *)

val size : t -> int
