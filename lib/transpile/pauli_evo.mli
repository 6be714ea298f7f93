(** Pauli-evolution compiler (the RUSTIQ substitute): exp(−iθ/2·P) terms
    become basis changes + a CX ladder + one Rz, with greedy term
    ordering and pair cancellation to share ladder structure between
    consecutive terms. *)

type pauli = I | X | Y | Z

type term = { paulis : pauli array; angle : float }

val pauli_of_char : char -> pauli
(** @raise Invalid_argument on characters outside IXYZ. *)

val term_of_string : string -> float -> term
(** [term_of_string "XXYZ" theta]. *)

val support : term -> int list

val compile : ?reorder:bool -> n:int -> term list -> Circuit.t
(** One evolution step; [reorder] (default) applies the greedy
    ladder-sharing order. *)

val trotter : n:int -> steps:int -> term list -> Circuit.t
(** First-order Trotterization: [steps] repetitions at angle/steps of
    the reordered {!compile} step. *)
