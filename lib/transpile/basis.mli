(** Basis-conversion passes: lowering exotic gates to CX + 1q, merging
    adjacent single-qubit runs into U3 (the U3-IR merge of §3.4), and
    expanding to the Rz intermediate representation via Eq. (1). *)

val lower : Circuit.t -> Circuit.t
(** Decompose CZ, Swap, Toffoli into CX + single-qubit gates. *)

val lower_instr : Circuit.instr -> Circuit.instr list
(** {!lower} for one instruction — what the streaming optimizer calls
    per incoming gate. *)

val is_identity_mat : Mat2.t -> bool
(** Within 1e-10 of the identity — the threshold under which a merged
    1q run vanishes. *)

val merge_1q : Circuit.t -> Circuit.t
(** Fuse every maximal run of adjacent 1q gates per qubit into one U3
    (identity runs vanish). *)

val snap : float -> float
(** Snap angles numerically at multiples of π/4 onto them exactly, so
    trivial rotations are recognized downstream. *)

val norm_angle : float -> float
(** Normalize to (−π, π], then {!snap}. *)

val to_rz_ir : Circuit.t -> Circuit.t
(** Rewrite all rotations into the CX + H + Rz basis.  A U3 expands by
    Eq. (1): U3(θ,φ,λ) = Rz(φ+5π/2)·H·Rz(θ)·H·Rz(λ−π/2) as a circuit
    (λ-rotation first); θ ≈ 0 degenerates to one Rz. *)

val rz_ir_instr : Circuit.instr -> Circuit.instr list
(** {!to_rz_ir} for one instruction (exact-identity rotations vanish);
    what the streaming optimizer calls per incoming gate. *)

val to_u3_ir_simple : Circuit.t -> Circuit.t
(** Rewrite every rotation into a U3 gate (level-0 U3 IR). *)
