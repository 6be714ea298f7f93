(** Step 0 of TRASYN: the table of all Clifford+T operators up to global
    phase with at most a given T count, enumerated as Matsumoto–Amano
    normal forms [ε|T](HT|SHT)*·C — provably unique, so the enumeration
    is linear in the output count 24·(3·2^#T − 2) and every sequence is
    T-optimal by construction.  Words share suffixes: an entry's word is
    its first block consed onto the word of an entry with one T fewer,
    so a deep table holds one to three list cells per word, with the
    words and their order unchanged.  Doubles as step 3's lookup table
    of cheaper equivalents. *)

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

val get : int -> t
(** Memoized [build]. *)

val of_entries : max_t:int -> entry array -> t
(** Rebuild the lookup/offset structure around an entry array already
    sorted by [tcount] (all ≤ [max_t]).  [build] and the on-disk table
    loader both funnel through here, so a loaded table is bit-identical
    to the in-process enumeration.  @raise Invalid_argument on unsorted
    or too-deep entries. *)

(** {1 Gate-set-keyed registry}

    Tables for gate sets other than the built-in Clifford+T enumeration
    are generated offline ([Tablegen]) and registered here by name; the
    synthesis stack then asks for the table of the active gate set
    without knowing its origin. *)

val provide : gate_set:string -> t -> unit
(** Register the table as the one for [gate_set].  A deeper table wins:
    providing a shallower table than one already registered is a no-op.
    Thread-safe. *)

val find_for : gate_set:string -> int -> (t, string) result
(** The table for [gate_set] at depth [max_t].  A provided deeper table
    is truncated (memoized); ["cliffordt"] falls back to the in-process
    [get] when nothing was provided.  [Error] says why there is none: no
    table was provided for that gate set (listing the provided ones), or
    the provided one is too shallow ("only reaches depth m (need n)"). *)

val get_for : gate_set:string -> int -> t
(** {!find_for}, raising (TRASYN's lookup).  @raise Failure with its
    message prefixed by ["Ma_table.get_for: "]. *)

val lookup_best : t -> Exact_u.t -> entry option
(** Cheapest known realization of an operator, up to global phase. *)

val entries_in_range : t -> lo:int -> hi:int -> entry array
(** Entries with T count in [lo, hi] (fresh array). *)

val size : t -> int
