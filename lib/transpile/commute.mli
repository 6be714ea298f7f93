(** The gate-commutation pass of §3.4: diagonal rotations slide through
    CX controls (and CZ), X-axis rotations through CX targets.  Pulling
    every rotation to its earliest commuting slot brings mergeable
    rotations next to each other. *)

val is_diagonal_1q : Qgate.t -> bool
(** Z, S, S†, T, T† and Rz: the gates that pass a CX control. *)

val is_xaxis_1q : Qgate.t -> bool
(** X and Rx: the gates that pass a CX target. *)

val commutes_past : Circuit.instr -> Circuit.instr -> bool
(** Does single-qubit instruction [a] commute with (an earlier or later)
    instruction [b]?  True on disjoint qubits, for diagonal gates
    through a CX control or a CZ, X-axis gates through a CX target, and
    same-axis 1q pairs.  The streaming optimizer uses this to fold a
    rotation backward through its window. *)

val pull_rotations_left : Circuit.t -> Circuit.t
(** Move every 1q gate, in input order, right after the last earlier
    gate it does not commute past ({!commutes_past}), or to the front
    when there is none; other gates keep their order.  Each 1q gate
    walks back over its own qubit's gates only, so the pass costs the
    gates walked over, not the gates moved across. *)

val cancel_pairs : Circuit.t -> Circuit.t
(** Remove adjacent self-inverse pairs (CX·CX, H·H, …) to a fixpoint;
    a circuit with no such pair comes back as it is. *)

val merge_axis_rotations : Circuit.t -> Circuit.t
(** Fuse adjacent same-axis rotations (Rz·Rz, Rx·Rx) without leaving
    the Rz IR; exact-zero results vanish, and a circuit with no such
    pair comes back as it is. *)
