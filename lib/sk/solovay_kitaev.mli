(** Solovay–Kitaev synthesis (Dawson–Nielsen) — the classical baseline
    of §2.3: converges for any single-qubit target but with sequence
    length O(log^c(1/ε)), c ≈ 3.97, far from the 3·log2(1/ε) that
    gridsynth and TRASYN achieve.  Kept as a reference point for the
    ablation benches. *)

type rotation = { angle : float; nx : float; ny : float; nz : float }
(** Axis–angle form of an SU(2) element (unit axis). *)

val rotation_of_mat2 : Mat2.t -> rotation
(** Strip the global phase and read off the rotation. *)

val mat2_of_rotation : rotation -> Mat2.t

val group_commutator : Mat2.t -> Mat2.t * Mat2.t
(** [group_commutator u] returns (v, w) with u ≈ v·w·v†·w† for [u] close
    to the identity — the balanced decomposition driving the recursion. *)

val adjoint_word : Ctgate.t list -> Ctgate.t list
(** The word of the adjoint operator (reverse + per-gate adjoints). *)

type result = { seq : Ctgate.t list; mat : Mat2.t; distance : float }

val synthesize : ?base_t:int -> ?depth:int -> Mat2.t -> result
(** Recursion of the given [depth] (default 3) over a base ε-net of all
    Clifford+T operators with at most [base_t] T gates (default 4).
    Sequence length grows ~5× per level while the error contracts
    ~3/2-power — the characteristic Solovay–Kitaev tradeoff. *)

val synthesize_to : ?max_depth:int -> epsilon:float -> Mat2.t -> result
(** Escalate the recursion depth from 0, over the base net of at most
    4 T gates, until the distance drops to [epsilon] or [max_depth]
    (default 4) is reached; the best result
    seen is returned either way.  Always terminates — this is the
    guaranteed last-resort rung of the robust fallback ladder, which
    may land above [epsilon] (a reported degradation) but never
    diverges. *)
