(** GRIDSYNTH: optimal-style ancilla-free Clifford+T approximation of
    z-rotations (Ross–Selinger 2016), the paper's baseline synthesizer.

    The implementation is complete and exact: ε-region candidates from
    the grid solver ({!Region}, {!Grid1d}) and the Diophantine norm
    equation over Z[√2] ({!Diophantine}) over arbitrary-precision
    integers, then Kliuchnikov–Maslov–Mosca exact synthesis
    ({!Exact_synth}) on native-int {!Exact_u.t}, whose coefficients
    provably stay below 2^(n/2+2).  T counts track the 3·log2(1/ε) law. *)

type result = {
  seq : Ctgate.t list;  (** Clifford+T word, matrix order, equal to the
                            target up to global phase and [distance] *)
  distance : float;  (** achieved unitary distance (Eq. 2) *)
  t_count : int;
  clifford_count : int;
  n_used : int;  (** denominator exponent of the accepted solution *)
  candidates_tried : int;  (** grid candidates consumed (diagnostics) *)
}

exception Synthesis_failed of string
(** Raised for ε ≤ 0 or NaN; when no solution is found within
    [max_extra_n] levels above the information-theoretic starting point
    (or past {!Exact_synth.max_n}); or when the [deadline] expires
    mid-search.  A level fails, without building a candidate, when one
    of its grid problems would enumerate more than
    {!Grid1d.max_points} = 2^20 lattice points; the float slack of the
    grid windows makes that the ε floor.  Measured on the suite's 7,634
    distinct Rz angles, every angle solves at ε ≥ 1e-4 and all but 20
    at 1e-5; at θ = 0.61 the search solves down to ε = 2e-6 and fails
    within 0.05 s at 1e-6 and below. *)

val rz :
  ?max_extra_n:int ->
  ?candidates_per_n:int ->
  ?deadline:Obs.Deadline.t ->
  theta:float ->
  epsilon:float ->
  unit ->
  result
(** Approximate Rz(theta) to unitary distance ≤ [epsilon].  For
    ε ≥ 1 the empty word is returned: no unitary distance exceeds 1.
    The [deadline] (default: none) is checked between
    denominator-exponent levels; on expiry the search aborts with
    {!Synthesis_failed} (counted as [gridsynth.deadline_expired]).
    Levels failed by an oversized grid problem count as
    [gridsynth.grid_too_large]. *)

val u3 :
  ?max_extra_n:int ->
  ?deadline:Obs.Deadline.t ->
  theta:float ->
  phi:float ->
  lam:float ->
  epsilon:float ->
  unit ->
  result
(** Approximate U3(θ,φ,λ) through the paper's Eq. (1): three Rz
    syntheses at ε/3 joined by Hadamards — the indirect workflow whose
    ~3× T overhead motivates TRASYN. *)
