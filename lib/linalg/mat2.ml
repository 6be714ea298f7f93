(** 2×2 complex matrices — the workhorse of single-qubit synthesis.

    Distances follow the paper: the trace value is |Tr(U†V)|/2 and the
    unitary distance is D(U,V) = sqrt(1 − (|Tr(U†V)|/2)²)  (Eq. 2). *)

type t = { m00 : Cplx.t; m01 : Cplx.t; m10 : Cplx.t; m11 : Cplx.t }

let make m00 m01 m10 m11 = { m00; m01; m10; m11 }

let of_floats a b c d =
  { m00 = Cplx.of_float a; m01 = Cplx.of_float b; m10 = Cplx.of_float c; m11 = Cplx.of_float d }

let identity = of_floats 1.0 0.0 0.0 1.0
let zero = of_floats 0.0 0.0 0.0 0.0

let mul a b =
  let ( * ) = Cplx.mul and ( + ) = Cplx.add in
  {
    m00 = (a.m00 * b.m00) + (a.m01 * b.m10);
    m01 = (a.m00 * b.m01) + (a.m01 * b.m11);
    m10 = (a.m10 * b.m00) + (a.m11 * b.m10);
    m11 = (a.m10 * b.m01) + (a.m11 * b.m11);
  }

let adjoint a =
  {
    m00 = Cplx.conj a.m00;
    m01 = Cplx.conj a.m10;
    m10 = Cplx.conj a.m01;
    m11 = Cplx.conj a.m11;
  }

let scale s a =
  { m00 = Cplx.mul s a.m00; m01 = Cplx.mul s a.m01; m10 = Cplx.mul s a.m10; m11 = Cplx.mul s a.m11 }

let add a b =
  let ( + ) = Cplx.add in
  { m00 = a.m00 + b.m00; m01 = a.m01 + b.m01; m10 = a.m10 + b.m10; m11 = a.m11 + b.m11 }

let sub a b = add a (scale (Cplx.of_float (-1.0)) b)
let trace a = Cplx.add a.m00 a.m11

(* Product of a list, leftmost applied last (matrix order). *)
let product ms = List.fold_left mul identity ms

(* conj(p)·q, with the float operations of [Cplx.mul (Cplx.conj p) q],
   for q given as its two parts. *)
let[@inline] conj_re (p : Cplx.t) qre qim = (p.re *. qre) -. (-.p.im *. qim)
let[@inline] conj_im (p : Cplx.t) qre qim = (p.re *. qim) +. (-.p.im *. qre)

(* |Tr(U†V)| / 2 for V given as the parts of its entries, row-major.
   Only the two diagonal entries of U†V are formed, with the operations
   and order of [trace (mul (adjoint u) v)], so the value is
   bit-identical to it ([Cplx.norm] is [Float.hypot]). *)
let[@inline] trace_value_parts u r0 i0 r1 i1 r2 i2 r3 i3 =
  let re = (conj_re u.m00 r0 i0 +. conj_re u.m10 r2 i2) +. (conj_re u.m01 r1 i1 +. conj_re u.m11 r3 i3)
  and im = (conj_im u.m00 r0 i0 +. conj_im u.m10 r2 i2) +. (conj_im u.m01 r1 i1 +. conj_im u.m11 r3 i3) in
  Float.hypot re im /. 2.0

(* |Tr(U†V)| / 2 ∈ [0,1] for unitaries. *)
let trace_value u v =
  trace_value_parts u v.m00.re v.m00.im v.m01.re v.m01.im v.m10.re v.m10.im v.m11.re v.m11.im

(* Eq. (2) of the paper from the trace value. *)
let[@inline] of_trace_value tv = Float.sqrt (Float.max 0.0 (1.0 -. (tv *. tv)))

(* Unitary distance, Eq. (2) of the paper. *)
let distance u v = of_trace_value (trace_value u v)

(* [distance u v] for the v stored row-major at re/im.(b .. b + 3). *)
let[@inline] distance_at u (re : float array) (im : float array) b =
  of_trace_value
    (trace_value_parts u re.(b) im.(b) re.(b + 1) im.(b + 1) re.(b + 2) im.(b + 2) re.(b + 3) im.(b + 3))

let is_close ?(tol = 1e-9) a b =
  Cplx.is_close ~tol a.m00 b.m00 && Cplx.is_close ~tol a.m01 b.m01
  && Cplx.is_close ~tol a.m10 b.m10 && Cplx.is_close ~tol a.m11 b.m11

let is_unitary ?(tol = 1e-9) a = is_close ~tol (mul a (adjoint a)) identity

(* ------------------------------------------------------------------ *)
(* Standard gates                                                      *)
(* ------------------------------------------------------------------ *)

let s2 = 1.0 /. Float.sqrt 2.0
let h = of_floats s2 s2 s2 (-.s2)
let x = of_floats 0.0 1.0 1.0 0.0
let y = make Cplx.zero { Cplx.re = 0.0; im = -1.0 } { Cplx.re = 0.0; im = 1.0 } Cplx.zero
let z = of_floats 1.0 0.0 0.0 (-1.0)
let s = make Cplx.one Cplx.zero Cplx.zero Cplx.i
let sdg = adjoint s
let t = make Cplx.one Cplx.zero Cplx.zero (Cplx.cis (Float.pi /. 4.0))
let tdg = adjoint t

let rz theta =
  make (Cplx.cis (-.theta /. 2.0)) Cplx.zero Cplx.zero (Cplx.cis (theta /. 2.0))

let rx theta =
  let c = Cplx.of_float (Float.cos (theta /. 2.0)) in
  let ms = { Cplx.re = 0.0; im = -.Float.sin (theta /. 2.0) } in
  make c ms ms c

let ry theta =
  let c = Float.cos (theta /. 2.0) and s = Float.sin (theta /. 2.0) in
  of_floats c (-.s) s c

(* U3(θ,φ,λ), Qiskit/OpenQASM convention. *)
let u3 theta phi lam =
  let c = Float.cos (theta /. 2.0) and s = Float.sin (theta /. 2.0) in
  make (Cplx.of_float c)
    (Cplx.scale (-.s) (Cplx.cis lam))
    (Cplx.scale s (Cplx.cis phi))
    (Cplx.scale c (Cplx.cis (phi +. lam)))

(* ------------------------------------------------------------------ *)
(* Euler angles                                                        *)
(* ------------------------------------------------------------------ *)

(* Recover (θ, φ, λ) with u3 θ φ λ equal to the input up to global phase.
   Works for any unitary input. *)
let to_u3_angles u =
  (* Strip the global phase by rotating so that m00 is real ≥ 0. *)
  let n00 = Cplx.norm u.m00 and n10 = Cplx.norm u.m10 in
  let theta = 2.0 *. Float.atan2 n10 n00 in
  if n00 < 1e-12 then begin
    (* θ = π: only φ − λ is determined; fix λ = 0, phase from −m01. *)
    let phi = Cplx.arg u.m10 -. Cplx.arg (Cplx.neg u.m01) in
    (Float.pi, phi, 0.0)
  end
  else if n10 < 1e-12 then begin
    (* θ = 0: only φ + λ is determined; fix φ = 0. *)
    let lam = Cplx.arg u.m11 -. Cplx.arg u.m00 in
    (0.0, 0.0, lam)
  end
  else begin
    let phase00 = Cplx.arg u.m00 in
    let phi = Cplx.arg u.m10 -. phase00 in
    let lam = Cplx.arg (Cplx.neg u.m01) -. phase00 in
    (theta, phi, lam)
  end

(* Haar-random SU(2) via a normalized Gaussian quaternion. *)
let random_unitary rng =
  let gauss () =
    let u1 = Random.State.float rng 1.0 +. 1e-300 and u2 = Random.State.float rng 1.0 in
    Float.sqrt (-2.0 *. Float.log u1) *. Float.cos (2.0 *. Float.pi *. u2)
  in
  let a = gauss () and b = gauss () and c = gauss () and d = gauss () in
  let n = Float.sqrt ((a *. a) +. (b *. b) +. (c *. c) +. (d *. d)) in
  let a = a /. n and b = b /. n and c = c /. n and d = d /. n in
  make { Cplx.re = a; im = b } { Cplx.re = c; im = d } { Cplx.re = -.c; im = d } { Cplx.re = a; im = -.b }

let pp fmt m =
  Format.fprintf fmt "[%a, %a; %a, %a]" Cplx.pp m.m00 Cplx.pp m.m01 Cplx.pp m.m10 Cplx.pp m.m11
