(** 2×2 complex matrices — the workhorse of single-qubit synthesis.

    Distances follow the paper: trace value |Tr(U†V)|/2, unitary
    distance D(U,V) = sqrt(1 − (|Tr(U†V)|/2)²) (Eq. 2), both invariant
    under global phase.  Note the distance formula has a ~sqrt(ulp)
    floor near zero: equality checks against it should use tolerances
    of 1e-7 or looser. *)

type t = { m00 : Cplx.t; m01 : Cplx.t; m10 : Cplx.t; m11 : Cplx.t }

val make : Cplx.t -> Cplx.t -> Cplx.t -> Cplx.t -> t
val of_floats : float -> float -> float -> float -> t
val identity : t
val zero : t
val mul : t -> t -> t
val adjoint : t -> t
val scale : Cplx.t -> t -> t
val add : t -> t -> t
val sub : t -> t -> t
val trace : t -> Cplx.t

val product : t list -> t
(** Product of a list, leftmost factor first (matrix order). *)

val trace_value : t -> t -> float
(** |Tr(U†V)|/2 ∈ [0,1] for unitaries. *)

val distance : t -> t -> float
(** Eq. (2); numerically close to the operator norm for small values. *)

val distance_at : t -> float array -> float array -> int -> float
(** [distance_at u re im b] is [distance u v], bit for bit, for the v
    stored row-major in two planes: v's entries at [b .. b + 3] of
    [re] (real parts) and [im] (imaginary parts).  Builds no v. *)

val is_close : ?tol:float -> t -> t -> bool
val is_unitary : ?tol:float -> t -> bool

(** {1 Standard gates} *)

val h : t
val x : t
val y : t
val z : t
val s : t
val sdg : t
val t : t
val tdg : t
val rz : float -> t
val rx : float -> t
val ry : float -> t

val u3 : float -> float -> float -> t
(** U3(θ,φ,λ), OpenQASM convention. *)

val to_u3_angles : t -> float * float * float
(** (θ, φ, λ) with [u3 θ φ λ] equal to the input up to global phase. *)

val random_unitary : Random.State.t -> t
(** Haar-random SU(2) (normalized Gaussian quaternion). *)

val pp : Format.formatter -> t -> unit
