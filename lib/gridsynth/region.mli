(** Candidate enumeration for the Ross–Selinger ε-region: elements
    u ∈ D[ω] at denominator exponent [n] whose value lies in the sliver
    { |u| ≤ 1, Re(u·e^{iθ/2}) ≥ 1 − ε²/2 } and whose √2-conjugate lies
    in the unit disk.  The tilted sliver is handled by enumerating the
    real coordinate with the 1D grid solver and intersecting the exact
    Y-interval per candidate (see DESIGN.md for why this replaces the
    original grid-operator machinery at our ε range). *)

type candidate = {
  w : Zomega.Big.t;  (** numerator: u = w/√2^n *)
  n : int;
  u_re : float;
  u_im : float;
  trace_value : float;  (** Re(u·z̄), the cosine of the half-angle error *)
}

val candidates : theta:float -> epsilon:float -> n:int -> candidate list
(** Candidates at level [n], most accurate first.
    @raise Grid1d.Too_large when one of the level's grid problems would
    enumerate more than {!Grid1d.max_points} points; the Y problems are
    all counted before any is enumerated. *)
