(** Dense complex matrices with flat float storage (row-major, separate
    re/im planes).  Sized for this project's small dense work: MPS bond
    tensors, circuit unitaries up to ~2^7, Gram matrices. *)

type t = { rows : int; cols : int; re : float array; im : float array }

val create : int -> int -> t
val dims : t -> int * int
val get : t -> int -> int -> Cplx.t
val set : t -> int -> int -> Cplx.t -> unit
val init : int -> int -> (int -> int -> Cplx.t) -> t
val identity : int -> t
val of_mat2 : Mat2.t -> t
val to_mat2 : t -> Mat2.t
val mul : t -> t -> t
val adjoint : t -> t
val sub : t -> t -> t
val trace : t -> Cplx.t

val hs_inner : t -> t -> Cplx.t
(** Tr(A†B). *)

val frobenius_norm : t -> float
val kron : t -> t -> t
val is_close : ?tol:float -> t -> t -> bool

val distance : t -> t -> float
(** Eq. (2) generalized: sqrt(1 − |Tr(A†B)|²/N²); phase invariant. *)

val pp : Format.formatter -> t -> unit
