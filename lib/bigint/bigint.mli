(** Arbitrary-precision signed integers.

    A from-scratch replacement for zarith (unavailable in this sealed
    environment), sized for the number theory needed by the Ross–Selinger
    synthesizer: a few hundred bits at most.  Values are immutable.

    Representation: a value below 2^61 in magnitude is a native [int]
    with no limb array; a larger one is a sign and a little-endian
    magnitude in base 2^31.  Every result that fits is normalized to
    the small case, so each value has exactly one representation.
    Arithmetic, comparison, division and shifts on small operands run
    natively ([mul] only when a float estimate of the product proves it
    fits); everything else goes through the limbs.  Results are those
    of the limb-only implementation: the same values, [to_float] bit
    for bit, the same [hash], and the same [Random.full_int] draws in
    [random_below]. *)

type t

val zero : t
val one : t
val two : t
val minus_one : t

val of_int : int -> t

val to_int_opt : t -> int option
(** [to_int_opt x] is [Some n] when [x] fits in a native [int]. *)

val to_int_exn : t -> int
(** @raise Failure when the value does not fit in a native [int]. *)

val to_float : t -> float
(** Nearest float; very large values round toward infinity gracefully. *)

val of_string : string -> t
(** Decimal, with optional leading [-]. @raise Invalid_argument on junk. *)

val to_string : t -> string

val sign : t -> int
(** [-1], [0] or [1]. *)

val is_zero : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val mul_int : t -> int -> t
val add_int : t -> int -> t

val divmod : t -> t -> t * t
(** Truncated division: [divmod a b = (q, r)] with [a = q*b + r] and
    [|r| < |b|], [r] carrying the sign of [a].  @raise Division_by_zero. *)

val div : t -> t -> t
val rem : t -> t -> t

val ediv_rem : t -> t -> t * t
(** Euclidean division: remainder always in [0, |b|). *)

val erem : t -> t -> t

val shift_left : t -> int -> t
val shift_right : t -> int -> t
(** Shifts the magnitude: a negative value rounds toward zero, unlike
    [asr]. *)

val num_bits : t -> int
(** Bits in the magnitude; [num_bits zero = 0]. *)

val is_even : t -> bool
val pow : t -> int -> t
val gcd : t -> t -> t
val sqrt : t -> t
(** Integer square root (floor). @raise Invalid_argument on negatives. *)

val is_square : t -> bool
val powmod : t -> t -> t -> t
(** [powmod b e m] = b^e mod m (Euclidean remainder), e >= 0, m > 0. *)

val random_below : t -> t
(** Uniform in [0, bound); uses the global [Random] state. *)

val pp : Format.formatter -> t -> unit
