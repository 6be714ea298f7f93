(** Statevector simulation.  Qubit 0 is the least significant bit of the
    basis index; amplitudes live in split re/im planes. *)

type t = { n : int; re : float array; im : float array }

val zero_state : int -> t
val dim : t -> int
val amplitude : t -> int -> Cplx.t
val norm2 : t -> float

val overlap : t -> t -> Cplx.t
(** ⟨a|b⟩.  @raise Invalid_argument on dimension mismatch. *)

val fidelity : t -> t -> float
(** |⟨a|b⟩|². *)

val apply_mat2 : t -> Mat2.t -> int -> unit
val apply_cx : t -> int -> int -> unit
val apply_cz : t -> int -> int -> unit
val apply_swap : t -> int -> int -> unit
val apply_ccx : t -> int -> int -> int -> unit
val apply_instr : t -> Circuit.instr -> unit
val apply_circuit : t -> Circuit.t -> unit

val run : Circuit.t -> t
(** Apply the circuit to |0…0⟩. *)
