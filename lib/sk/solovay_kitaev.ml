(** The Solovay–Kitaev algorithm (Dawson–Nielsen formulation) — the
    classical baseline the paper's §2.3 contrasts against: it converges
    for any target but with sequence length O(log^c(1/ε)), c ≈ 3.97,
    far off the optimal O(log(1/ε)) that gridsynth and TRASYN track.

    Included as a reference point for the ablation benches; the
    implementation follows the standard recursion
        U_d = V W V† W† U_(d−1)
    with the group commutator (V, W) of the residual rotation and a
    Matsumoto–Amano table as the base ε-net. *)

(* ------------------------------------------------------------------ *)
(* Axis–angle view of SU(2)                                            *)
(* ------------------------------------------------------------------ *)

type rotation = { angle : float; nx : float; ny : float; nz : float }

(* Strip the global phase and read off the rotation. *)
let rotation_of_mat2 (u : Mat2.t) =
  (* u = e^{iα}[cos(θ/2)·I − i·sin(θ/2)·(n·σ)].  Fix the phase so the
     trace is real and nonnegative. *)
  let tr = Mat2.trace u in
  let phase =
    let n = Cplx.norm tr in
    if n < 1e-12 then Cplx.one else Cplx.scale (1.0 /. n) (Cplx.conj tr)
  in
  let su = Mat2.scale phase u in
  let c = (Mat2.trace su).Cplx.re /. 2.0 in
  let c = Float.max (-1.0) (Float.min 1.0 c) in
  let angle = 2.0 *. Float.acos c in
  let s = Float.sin (angle /. 2.0) in
  if Float.abs s < 1e-12 then { angle = 0.0; nx = 0.0; ny = 0.0; nz = 1.0 }
  else begin
    (* su = cos·I − i·sin·(nx·X + ny·Y + nz·Z) *)
    let nx = -.(Cplx.add su.Mat2.m01 su.Mat2.m10).Cplx.im /. (2.0 *. s) in
    let ny = (Cplx.sub su.Mat2.m10 su.Mat2.m01).Cplx.re /. (2.0 *. s) in
    let nz = -.(Cplx.sub su.Mat2.m00 su.Mat2.m11).Cplx.im /. (2.0 *. s) in
    let norm = Float.sqrt ((nx *. nx) +. (ny *. ny) +. (nz *. nz)) in
    { angle; nx = nx /. norm; ny = ny /. norm; nz = nz /. norm }
  end

let mat2_of_rotation { angle; nx; ny; nz } =
  let c = Float.cos (angle /. 2.0) and s = Float.sin (angle /. 2.0) in
  Mat2.make
    { Cplx.re = c; im = -.s *. nz }
    { Cplx.re = -.s *. ny; im = -.s *. nx }
    { Cplx.re = s *. ny; im = -.s *. nx }
    { Cplx.re = c; im = s *. nz }

(* ------------------------------------------------------------------ *)
(* Group commutator decomposition                                      *)
(* ------------------------------------------------------------------ *)

(* For a rotation by θ, the commutator of Rx(φ) and Ry(φ) is a rotation
   by θ(φ) with sin(θ/2) = 2·sin²(φ/2)·sqrt(1 − sin⁴(φ/2)); solve for φ
   by bisection (θ(φ) is monotone on [0, π]). *)
let commutator_phi theta =
  let target = Float.sin (theta /. 2.0) in
  let f phi =
    let s2 = Float.sin (phi /. 2.0) ** 2.0 in
    2.0 *. s2 *. Float.sqrt (Float.max 0.0 (1.0 -. (s2 *. s2)))
  in
  let lo = ref 0.0 and hi = ref Float.pi in
  for _ = 1 to 60 do
    let mid = 0.5 *. (!lo +. !hi) in
    if f mid < target then lo := mid else hi := mid
  done;
  0.5 *. (!lo +. !hi)

(* Unit-vector cross/dot helpers. *)
let cross (ax, ay, az) (bx, by, bz) =
  ((ay *. bz) -. (az *. by), (az *. bx) -. (ax *. bz), (ax *. by) -. (ay *. bx))

let dot (ax, ay, az) (bx, by, bz) = (ax *. bx) +. (ay *. by) +. (az *. bz)

(* Rotation taking unit vector a to unit vector b. *)
let aligning_rotation a b =
  let cx, cy, cz = cross a b in
  let s = Float.sqrt (Float.max 1e-30 ((cx *. cx) +. (cy *. cy) +. (cz *. cz))) in
  let d = Float.max (-1.0) (Float.min 1.0 (dot a b)) in
  if s < 1e-9 then
    if d > 0.0 then Mat2.identity
    else mat2_of_rotation { angle = Float.pi; nx = 1.0; ny = 0.0; nz = 0.0 }
  else
    mat2_of_rotation { angle = Float.atan2 s d; nx = cx /. s; ny = cy /. s; nz = cz /. s }

(* Find V, W with U ≈ V·W·V†·W† for U close to the identity. *)
let group_commutator u =
  let r = rotation_of_mat2 u in
  let phi = commutator_phi r.angle in
  let v0 = mat2_of_rotation { angle = phi; nx = 1.0; ny = 0.0; nz = 0.0 } in
  let w0 = mat2_of_rotation { angle = phi; nx = 0.0; ny = 1.0; nz = 0.0 } in
  (* Axis of the raw commutator. *)
  let b = Mat2.product [ v0; w0; Mat2.adjoint v0; Mat2.adjoint w0 ] in
  let rb = rotation_of_mat2 b in
  (* Sign of the rotation axis can flip; align to whichever matches. *)
  let axis_b = (rb.nx, rb.ny, rb.nz) in
  let axis_u = (r.nx, r.ny, r.nz) in
  let s = aligning_rotation axis_b axis_u in
  let v = Mat2.product [ s; v0; Mat2.adjoint s ] in
  let w = Mat2.product [ s; w0; Mat2.adjoint s ] in
  (v, w)

(* ------------------------------------------------------------------ *)
(* The recursion                                                       *)
(* ------------------------------------------------------------------ *)

let adjoint_word seq =
  List.rev_map
    (function
      | Ctgate.S -> Ctgate.Sdg
      | Ctgate.Sdg -> Ctgate.S
      | Ctgate.T -> Ctgate.Tdg
      | Ctgate.Tdg -> Ctgate.T
      | (Ctgate.H | Ctgate.X | Ctgate.Y | Ctgate.Z) as g -> g)
    seq

type result = { seq : Ctgate.t list; mat : Mat2.t; distance : float }

(* Nearest element of the base ε-net (the step-0 table): the first
   entry at the least distance. *)
let base_approx table target =
  let best, distance = Ma_table.nearest table target in
  if best < 0 then invalid_arg "Solovay_kitaev: empty base table";
  { seq = Ma_table.word table best; mat = Ma_table.mat table best; distance }

let rec synthesize_depth table target depth =
  if depth = 0 then base_approx table target
  else begin
    let prev = synthesize_depth table target (depth - 1) in
    let residual = Mat2.mul target (Mat2.adjoint prev.mat) in
    let v, w = group_commutator residual in
    let rv = synthesize_depth table v (depth - 1) in
    let rw = synthesize_depth table w (depth - 1) in
    let seq =
      List.concat [ rv.seq; rw.seq; adjoint_word rv.seq; adjoint_word rw.seq; prev.seq ]
    in
    let mat =
      Mat2.product [ rv.mat; rw.mat; Mat2.adjoint rv.mat; Mat2.adjoint rw.mat; prev.mat ]
    in
    { seq; mat; distance = Mat2.distance target mat }
  end

(* Synthesize [target] with recursion depth [depth] over a base net of
   T-count [base_t] (default 4). *)
let synthesize ?(base_t = 4) ?(depth = 3) target =
  let table = Ma_table.get base_t in
  let r = synthesize_depth table target depth in
  { r with distance = Mat2.distance target r.mat }

(* Escalate the recursion depth until the threshold is met (or
   [max_depth] is reached), returning the best result seen.  Depth
   escalation always terminates and every level contracts the error, so
   this is the guaranteed-landing rung of a fallback ladder: it may
   come back above [epsilon], but it always comes back. *)
let synthesize_to ?(base_t = 4) ?(max_depth = 4) ~epsilon target =
  let table = Ma_table.get base_t in
  let rec go depth best =
    let r = synthesize_depth table target depth in
    let r = { r with distance = Mat2.distance target r.mat } in
    let best = match best with Some b when b.distance <= r.distance -> b | _ -> r in
    if best.distance <= epsilon || depth >= max_depth then best else go (depth + 1) (Some best)
  in
  go 0 None
