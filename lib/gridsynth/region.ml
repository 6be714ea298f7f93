(** Candidate enumeration for the Ross–Selinger ε-region.

    For a target Rz(θ) and error ε, gridsynth needs elements
    u ∈ D[ω] with denominator exponent n such that
      val(u) lies in the ε-sliver  A = { |u| ≤ 1, Re(u·z̄) ≥ 1 − ε²/2 },
      with z = e^{−iθ/2}, and
      val(u•) lies in the unit disk B.

    Writing √2^{n+1}·u = X + iY with X, Y ∈ Z[√2] sharing the parity of
    their integer coefficients (the standard decomposition of Z[ω]), the
    sliver becomes a pair of coupled interval constraints: we enumerate
    X with the 1D grid solver over the sliver's X-extent, then for each
    X intersect the sliver exactly to get a (narrow) interval for Y and
    solve a second 1D grid problem.  This sidesteps the grid-operator
    machinery of the original paper at the cost of a slightly less
    uniform candidate stream — immaterial at the error scales we target.
    Below them the Y windows, widened by {!Grid1d}'s float slack, hold
    more than {!Grid1d.max_points} points and the level fails with
    {!Grid1d.Too_large} (see {!Gridsynth.Synthesis_failed} for the
    measured floor). *)

module R2 = Zroot2.Big
module O = Zomega.Big
module I = Ring_int.Big

type candidate = {
  w : O.t;  (** numerator: u = w / √2^n *)
  n : int;
  u_re : float;
  u_im : float;
  trace_value : float;  (** Re(u·z̄) — cos of the half-angle error *)
}

(* Build w = (X + iY)/√2 ∈ Z[ω] from X = p + q√2, Y = r + s√2 with p ≡ r
   (mod 2).  Coefficients: w = q·1 + ((p+r)/2)·ω + s·ω² + ((r−p)/2)·ω³. *)
let zomega_of_xy (x : R2.t) (y : R2.t) =
  let open Ring_int.Big in
  let p = x.R2.a and q = x.R2.b and r = y.R2.a and s = y.R2.b in
  let two = of_int 2 in
  let half v = fst (Bigint.divmod v two) in
  O.make q (half (add p r)) s (half (sub r p))

let same_parity (x : R2.t) (y : R2.t) =
  I.is_even (I.sub x.R2.a y.R2.a)

(* All candidates at denominator exponent n, most accurate first. *)
let candidates ~theta ~epsilon ~n =
  let z_re = Float.cos (theta /. 2.0) and z_im = -.Float.sin (theta /. 2.0) in
  (* Rotate u by z̄: radial coordinate ρ = Re(u z̄) = c·x − s·y with
     c = cos(θ/2), s = sin(θ/2); tangential τ = s·x + c·y. *)
  let c = z_re and s = -.z_im in
  let scale = Float.pow (Float.sqrt 2.0) (float_of_int (n + 1)) in
  let rho_min = 1.0 -. (epsilon *. epsilon /. 2.0) in
  let tau_max = Float.sqrt (Float.max 0.0 (1.0 -. (rho_min *. rho_min))) in
  (* X-extent of the sliver: x = c·ρ + s·τ over ρ ∈ [ρmin, 1], |τ| ≤ τmax. *)
  let corners =
    [
      (c *. rho_min) +. (s *. tau_max);
      (c *. rho_min) -. (s *. tau_max);
      c +. (s *. tau_max);
      c -. (s *. tau_max);
    ]
  in
  let x_lo = List.fold_left Float.min infinity corners *. scale in
  let x_hi = List.fold_left Float.max neg_infinity corners *. scale in
  (* Exact Y-interval for each X from the sliver geometry:
       ρ ≥ ρmin  ⇔  c·xv − s·y ≥ ρmin   (sign of s matters)
       |u| ≤ 1   ⇔  y² ≤ 1 − xv²
       |τ| ≤ τmax ⇔ |s·xv + c·y| ≤ τmax,
     and the conjugate disk y• ∈ [−d•, d•] with d• = sqrt(1 − x•²). *)
  let y_problem (x : R2.t) =
    let xv = R2.to_float x /. scale in
    let xc = R2.to_float (R2.conj2 x) /. scale in
    let ylo = ref neg_infinity and yhi = ref infinity in
    let clamp lo hi =
      ylo := Float.max !ylo lo;
      yhi := Float.min !yhi hi
    in
    (* radial *)
    if Float.abs s > 1e-15 then begin
      let bound = ((c *. xv) -. rho_min) /. s in
      if s > 0.0 then clamp neg_infinity bound else clamp bound infinity
    end
    else if (c *. xv) < rho_min then clamp 1.0 0.0;
    (* disk *)
    let d2 = 1.0 -. (xv *. xv) in
    if d2 < 0.0 then clamp 1.0 0.0
    else begin
      let d = Float.sqrt d2 in
      clamp (-.d) d
    end;
    (* tangential *)
    if Float.abs c > 1e-15 then begin
      let lo = ((-.tau_max) -. (s *. xv)) /. c and hi = (tau_max -. (s *. xv)) /. c in
      clamp (Float.min lo hi) (Float.max lo hi)
    end;
    let dc2 = 1.0 -. (xc *. xc) in
    if !ylo <= !yhi && dc2 >= 0.0 then begin
      let dc = Float.sqrt dc2 in
      Some (x, xv, xc, Grid1d.window ~x0:(!ylo *. scale) ~x1:(!yhi *. scale) ~y0:(-.dc *. scale) ~y1:(dc *. scale))
    end
    else None
  in
  (* Each X's Y window is counted as the X arrives, and the level fails
     at the first oversized one, before any Y problem is enumerated (below
     the working range, that comes within the first few X of a level). *)
  let too_large w = Grid1d.count w > float_of_int Grid1d.max_points in
  let xw = Grid1d.window ~x0:x_lo ~x1:x_hi ~y0:(-.scale) ~y1:scale in
  if too_large xw then raise Grid1d.Too_large;
  let problems = ref [] in
  Grid1d.iter xw (fun x ->
      match y_problem x with
      | Some (_, _, _, w) when too_large w -> raise Grid1d.Too_large
      | Some p -> problems := p :: !problems
      | None -> ());
  let out = ref [] in
  List.iter
    (fun (x, xv, xc, w) ->
      Grid1d.iter w (fun (y : R2.t) ->
          if same_parity x y then begin
            let yv = R2.to_float y /. scale in
            let rho = (c *. xv) -. (s *. yv) in
            let norm2 = (xv *. xv) +. (yv *. yv) in
            let xcv = xc and ycv = R2.to_float (R2.conj2 y) /. scale in
            let conj_norm2 = (xcv *. xcv) +. (ycv *. ycv) in
            if rho >= rho_min -. 1e-12 && norm2 <= 1.0 +. 1e-12 && conj_norm2 <= 1.0 +. 1e-12 then
              out := { w = zomega_of_xy x y; n; u_re = xv; u_im = yv; trace_value = rho } :: !out
          end))
    (List.rev !problems);
  List.sort (fun a b -> compare b.trace_value a.trace_value) !out
