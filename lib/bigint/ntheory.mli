(** Number theory over {!Bigint}: primality, factoring and modular square
    roots, as required by the Ross–Selinger Diophantine step. *)

val is_probable_prime : Bigint.t -> bool
(** Miller–Rabin.  Deterministic witness set below 3.3e24, 25 random
    witnesses above. *)

val pollard_rho : ?max_iters:int -> Bigint.t -> Bigint.t option
(** Brent-cycle Pollard rho; returns a nontrivial factor of a composite,
    or [None] if the iteration budget runs out.  Input must be > 1. *)

val factor : ?budget:int -> Bigint.t -> (Bigint.t * int) list option
(** Full factorization (ascending primes with multiplicities), with trial
    division then rho under a per-factor iteration [budget].  [None] when a
    composite cofactor resists the budget — callers following the
    Ross–Selinger "easily solvable" policy just move to the next candidate. *)

val sqrt_mod : Bigint.t -> Bigint.t -> Bigint.t option
(** [sqrt_mod a p]: a square root of [a] modulo the odd prime [p]
    (Tonelli–Shanks), or [None] when [a] is a non-residue. *)

val jacobi : Bigint.t -> Bigint.t -> int
(** Jacobi symbol (a/n) for odd positive n. *)
