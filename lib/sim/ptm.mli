(** Single-qubit Pauli transfer matrices: exact density-matrix-level
    composition of unitaries and depolarizing noise, used where Monte
    Carlo sampling noise would blur an optimum (the RQ5 study). *)

type t = float array array
(** 4×4 real, Pauli basis (I, X, Y, Z). *)

val identity : unit -> t

val of_mat2 : Mat2.t -> t
(** R_ij = Tr(P_i·U·P_j·U†)/2. *)

val depolarizing : float -> t
(** ρ ↦ (1−p)·ρ + p·I/2. *)

val compose : t -> t -> t
(** Matrix product = channel composition ([compose a b] applies [b]
    first). *)

val process_fidelity : t -> t -> float
(** Tr(R₁ᵀ·R₂)/4 — equals 1 for identical unitary channels. *)

val of_ctseq : ?noise:float -> Ctgate.t list -> t
(** Channel of a Clifford+T word with depolarizing noise of rate [noise]
    after every T gate — the paper's most conservative logical-error
    model. *)
