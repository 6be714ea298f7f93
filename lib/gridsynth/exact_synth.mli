(** Exact synthesis of Clifford+T unitaries over D[ω]
    (Kliuchnikov–Maslov–Mosca column reduction) on the native
    {!Exact_u.t}.  Denominator exponents drop roughly once per two
    Matsumoto–Amano syllables, so the reduction runs a small lookahead
    over residue-matched H·T^(−j) steps rather than a greedy descent. *)

exception Not_unitary of string

val synthesize : Exact_u.t -> Ctgate.t list
(** Word whose product equals the input up to a global phase ω^g.
    @raise Not_unitary when the input is not a Clifford+T operator. *)

val max_n : int
(** Largest denominator exponent {!synthesize_column} accepts: every
    coefficient the search builds from an exact unitary at exponent n is
    at most 2^(n/2+2), a native int while n ≤ [max_n] = 118. *)

val synthesize_column : w:Zomega.Big.t -> t:Zomega.Big.t -> n:int -> Ctgate.t list
(** Build the unitary [[w, −t†], [t, w†]]/√2^n (orthonormal whenever
    w†w + t†t = 2^n) on native ints and synthesize it.
    @raise Not_unitary when n > {!max_n} or a coefficient of [w] or [t]
    exceeds 2^(n/2), the bound every exactly unitary column meets. *)
