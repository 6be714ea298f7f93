(** The one-dimensional grid problem over Z[√2] (Ross–Selinger, §5):
    given closed real intervals X and Y, find all α ∈ Z[√2] with
    val(α) ∈ X and val(α•) ∈ Y, where α• is the √2-conjugate.

    The lattice {(val α, val α•)} has covolume 2√2, so the expected
    number of solutions is |X|·|Y|/(2√2).  Enumeration cost is governed
    by the number of candidate √2-coefficients, ≈ (|X| + |Y|)/(2√2),
    which is minimized when |X| ≈ |Y|; we first rescale by the unit
    λ = 1 + √2 (α ↦ λ^m α maps solutions bijectively, scaling X by λ^m
    and Y by (−1/λ)^m) to balance the two widths. *)

module R2 = Zroot2.Big
module I = Ring_int.Big

let sqrt2 = Float.sqrt 2.0
let lambda = 1.0 +. sqrt2

(* Floating-point slack, relative to interval magnitudes: we widen the
   search window slightly and let exact/downstream checks filter, so
   float rounding can only ever add candidates, not lose them. *)
let slack bounds = 1e-9 *. (1.0 +. Array.fold_left (fun acc b -> Float.max acc (Float.abs b)) 0.0 bounds)

exception Too_large

let max_points = 1 lsl 20

(* A problem rebalanced by λ^m and widened by the slack: its solutions
   are λ^(−m)·β for the β with val(β) ∈ [x0,x1] and val(β•) ∈ [y0,y1]. *)
type box = { m : int; x0 : float; x1 : float; y0 : float; y1 : float }

(* [None] when an interval is empty. *)
type window = box option

let window ~x0 ~x1 ~y0 ~y1 =
  if x1 < x0 || y1 < y0 then None
  else begin
    let wx = Float.max (x1 -. x0) 1e-300 and wy = Float.max (y1 -. y0) 1e-300 in
    (* Choose m so that λ^m scales X and (−1/λ)^m scales Y into balance. *)
    let m = int_of_float (Float.round (Float.log (wy /. wx) /. (2.0 *. Float.log lambda))) in
    let m = max (-200) (min 200 m) in
    let lm = Float.pow lambda (float_of_int m) in
    let lm_conj = Float.pow (-1.0 /. lambda) (float_of_int m) in
    let x0 = x0 *. lm and x1 = x1 *. lm in
    let ya = y0 *. lm_conj and yb = y1 *. lm_conj in
    let y0 = Float.min ya yb and y1 = Float.max ya yb in
    let eps = slack [| x0; x1; y0; y1 |] in
    Some { m; x0 = x0 -. eps; x1 = x1 +. eps; y0 = y0 -. eps; y1 = y1 +. eps }
  end

(* The range of the √2-coefficient b; for each b, the a-range is
   [⌈max(x0 − b√2, y0 + b√2)⌉, ⌊min(x1 − b√2, y1 + b√2)⌋]. *)
let b_lo w = Float.ceil ((w.x0 -. w.y1) /. (2.0 *. sqrt2) -. 1e-9)
let b_hi w = Float.floor ((w.x1 -. w.y0) /. (2.0 *. sqrt2) +. 1e-9)

(* Points are built on native ints, so a window whose every b lies past
   ±2^62 holds none: a zero-width interval, rebalanced by λ^±200, lands
   there. *)
let beyond_ints w =
  let limit = Float.ldexp 1.0 62 in
  b_lo w >= limit || b_hi w < -.limit

(* Counted in floats, before any point is built: at most [max_points]
   steps, and infinite past that or for a non-finite bound.  The slack
   widens the b-range by 1.4e-9 of the largest bound, so a window that
   passes holds only coefficients below 2·10^15: neither this loop nor
   [iter] leaves the native ints. *)
let count = function
  | None -> 0.0
  | Some w when beyond_ints w -> 0.0
  | Some w ->
      let b_lo = b_lo w and b_hi = b_hi w in
      if not (b_hi -. b_lo < float_of_int max_points) then infinity
      else begin
        let points = ref 0.0 in
        for b = int_of_float b_lo to int_of_float b_hi do
          let fb = float_of_int b *. sqrt2 in
          let a_lo = Float.ceil (Float.max (w.x0 -. fb) (w.y0 +. fb) -. 1e-9) in
          let a_hi = Float.floor (Float.min (w.x1 -. fb) (w.y1 +. fb) +. 1e-9) in
          if a_hi >= a_lo then points := !points +. (a_hi -. a_lo +. 1.0)
        done;
        !points
      end

let iter w f =
  match w with
  | None -> ()
  | Some w when beyond_ints w -> ()
  | Some w ->
      (* Map back: α = λ^(−m) · β, exactly in the ring. *)
      let unscale =
        if w.m = 0 then fun a -> a
        else if w.m > 0 then
          let li = R2.pow R2.lambda_inv w.m in
          fun a -> R2.mul li a
        else
          let l = R2.pow R2.lambda (-w.m) in
          fun a -> R2.mul l a
      in
      for b = int_of_float (b_lo w) to int_of_float (b_hi w) do
        let fb = float_of_int b *. sqrt2 in
        let a_lo = Float.ceil (Float.max (w.x0 -. fb) (w.y0 +. fb) -. 1e-9) in
        let a_hi = Float.floor (Float.min (w.x1 -. fb) (w.y1 +. fb) +. 1e-9) in
        let a = ref (int_of_float a_lo) in
        while float_of_int !a <= a_hi do
          f (unscale (R2.make (I.of_int !a) (I.of_int b)));
          incr a
        done
      done

let enumerate w =
  let out = ref [] in
  iter w (fun x -> out := x :: !out);
  List.rev !out

let solve ~x0 ~x1 ~y0 ~y1 =
  let w = window ~x0 ~x1 ~y0 ~y1 in
  if count w > float_of_int max_points then raise Too_large;
  enumerate w

(* Exact membership test used by callers that want to drop the float
   slack: val(α) ∈ [x0,x1] and val(α•) ∈ [y0,y1] within a tolerance. *)
let member ?(tol = 0.0) alpha ~x0 ~x1 ~y0 ~y1 =
  let v = R2.to_float alpha and w = R2.to_float (R2.conj2 alpha) in
  v >= x0 -. tol && v <= x1 +. tol && w >= y0 -. tol && w <= y1 +. tol
