(** Exact single-qubit Clifford+T unitaries: (1/√2^k)·[[a,b],[c,d]] with
    entries in Z[ω] and k minimal.  Equality up to the 8 global phases
    ω^j is decided by a canonical form, which is what backs the step-0
    table and the peephole lookups — no float tolerance anywhere. *)

module O = Zomega.Native

type t = { a : O.t; b : O.t; c : O.t; d : O.t; k : int }

val make : a:O.t -> b:O.t -> c:O.t -> d:O.t -> k:int -> t
(** Reduces the representation so [k] is minimal. *)

val identity : t
val mul : t -> t -> t
val adjoint : t -> t

val mul_phase : t -> int -> t
(** Multiply by ω^j. *)

(** Exact gate constants. *)

val gate_h : t
val gate_t : t
val gate_tdg : t
val gate_s : t
val gate_sdg : t
val gate_x : t
val gate_y : t
val gate_z : t
val of_gate : Ctgate.t -> t

val mul_gate : t -> Ctgate.t -> t
(** [mul_gate u g] = [mul u (of_gate g)], on native ints: T, T†, S, S†
    and Z turn the second column by a power of ω, X and Y swap the
    columns, and only H adds, subtracts and divides by √2. *)

val of_seq : Ctgate.t list -> t
(** Exact product of a word (matrix order), one {!mul_gate} per gate. *)

val h_tinv : t -> int -> t
(** [h_tinv u j] = H·T^(−j)·u, reduced: the second row turns by ω^(−j),
    the rows are added and subtracted and k rises by one.  The step of
    exact synthesis. *)

(** Entry arithmetic on native coefficients. *)

val rot : int -> O.t -> O.t
(** [rot j x] = ω^j·x for any integer [j]. *)

val zsub : O.t -> O.t -> O.t

val sqrt2_divides : O.t -> bool
(** Whether x/√2 lies in Z[ω]: x0 ≡ x2 and x1 ≡ x3 (mod 2). *)

val to_mat2 : t -> Mat2.t

val mat_into : float array -> float array -> int -> t -> int -> unit
(** [mat_into re im b u j] writes the entries of [to_mat2 (mul_phase u j)]
    row-major into [re] (real parts) and [im] (imaginary parts) at
    [b .. b + 3], bit for bit, without building ω^j·u or a [Mat2.t];
    [j] in 0..7. *)

val key : t -> int array
(** Flat integer encoding (coefficients stay small at table depths). *)

val key_size : int
(** 17: the length of a {!key}, [k] then the coefficients of [a], [b],
    [c], [d]. *)

val canonical_phase : t -> int
(** The j in 0..7 for which ω^j·u has the lexicographically smallest
    {!key}: the one that minimizes the first nonzero entry of [a], [b],
    [c], [d], whose eight rotations are distinct. *)

val canonicalize : t -> t
(** [mul_phase u (canonical_phase u)]. *)

val canonical_key : t -> int array
(** [key (canonicalize u)], building one key.  Equal exactly when the
    operators are equal up to global phase; the key of every table and
    step-3 lookup. *)

val canonical_key_into : int array -> t -> int
(** [canonical_key_into buf u] writes [canonical_key u] into the first
    {!key_size} ints of [buf] without allocating, and returns
    [canonical_phase u]. *)

val equal : t -> t -> bool
val equal_up_to_phase : t -> t -> bool
val hash : t -> int

val to_string : t -> string

(** Hash tables keyed by {!key} arrays. *)
module Key : sig
  type t = int array

  val equal : t -> t -> bool
  val hash : t -> int
end

module Table : Hashtbl.S with type key = int array
