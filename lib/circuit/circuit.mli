(** Quantum circuits: instruction lists over {!Qgate} plus the resource
    metrics the paper reports.  Instruction lists run in time order
    (first instruction applied first). *)

type instr = { gate : Qgate.t; qubits : int array }

type t = { n_qubits : int; instrs : instr list }

val instr : Qgate.t -> int array -> instr
(** @raise Invalid_argument on arity mismatch or duplicate qubits. *)

val make : int -> instr list -> t
(** @raise Invalid_argument when an instruction touches a qubit outside
    the register. *)

val empty : int -> t

val of_list : int -> (Qgate.t * int list) list -> t
(** Convenience constructor for tests and examples. *)

val length : t -> int

(** {1 Resource metrics} *)

val t_count : t -> int
val clifford_count : t -> int
(** Non-Pauli Cliffords, including CX/CZ/Swap (paper convention). *)

val rotation_count : t -> int
val two_qubit_count : t -> int

val exact_word : Ma_table.t -> Qgate.t -> Ctgate.t list option
(** The one triviality rule: the word of the depth-1 step-0 [table]'s
    entry within 1e-6 of the 1q gate, if any (at most one is).  Every
    ≤1-T operator is U3(θ, φ, λ) up to phase with all three angles
    multiples of π/4, so the gate's angles rounded to that grid name the
    only candidate, found by its exact key and then checked: O(1) for
    any gate, and an axis rotation more than 1e-5 π/4 steps off the
    grid needs no matrix. *)

val nontrivial_rotation : Qgate.t -> bool
(** Does this rotation need more than one T gate?  A rotation is trivial
    (footnote 3 of the paper) when {!exact_word} finds it in the
    Clifford+T table; a non-rotation gate is never nontrivial. *)

val nontrivial_rotation_count : t -> int

val t_depth : t -> int
(** T gates on the critical path. *)

val depth : t -> int

val map_rotations : (Qgate.t -> Qgate.t list) -> t -> t
(** Replace every rotation instruction by a gate list on the same qubit
    — the splice point where synthesis results enter the circuit. *)
