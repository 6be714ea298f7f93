(** The one-dimensional grid problem over Z[√2] (Ross–Selinger §5): all
    α ∈ Z[√2] with val(α) in one interval and val(α•) in another.
    Intervals are first rebalanced by powers of the unit λ = 1+√2, so
    enumeration cost matches the expected solution count. *)

exception Too_large
(** The enumeration would visit more than {!max_points} lattice points. *)

val max_points : int
(** 2^20: the largest enumeration {!solve} runs. *)

type window
(** A problem rebalanced by a power of λ and widened by the float slack. *)

val window : x0:float -> x1:float -> y0:float -> y1:float -> window

val count : window -> float
(** The lattice points {!iter} would visit, counted without building
    any: at most {!max_points} steps, and [infinity] beyond that or when
    a bound is not finite. *)

val iter : window -> (Zroot2.Big.t -> unit) -> unit
(** Every solution in turn, b then a ascending, whatever {!count} says. *)

val solve : x0:float -> x1:float -> y0:float -> y1:float -> Zroot2.Big.t list
(** Solutions with val(α) ∈ [x0,x1] and val(α•) ∈ [y0,y1].  Float slack
    is one-sided: rounding can only add candidates (callers filter),
    never lose them.
    @raise Too_large when {!count} exceeds {!max_points}. *)

val member : ?tol:float -> Zroot2.Big.t -> x0:float -> x1:float -> y0:float -> y1:float -> bool
(** Interval membership check for both embeddings. *)
